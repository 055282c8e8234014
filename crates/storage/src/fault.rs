//! Deterministic fault injection for storage IO.
//!
//! Corruption, torn writes, and flaky disks are hard to reproduce with
//! hand-crafted byte surgery. This failpoint-style layer lets tests inject
//! storage faults deterministically: every file read and write performed
//! by the persistence codecs goes through [`read_file`] /
//! [`write_file_atomic`], which consult the currently installed
//! [`FaultPlan`].
//!
//! [`install`] returns a [`FaultGuard`]; the plan is active until the
//! guard drops, and then there is no plan again. Installation also
//! serializes tests through a global lock so concurrent tests cannot see
//! each other's faults. Nothing outside a test installs a plan.
//!
//! | [`Fault`] | effect |
//! |---|---|
//! | `Missing` | reads fail with `NotFound` |
//! | `ReadErr { nth }` | the (nth+1)-th matching read fails with an IO error |
//! | `WriteErr { nth }` | the (nth+1)-th matching write fails mid-write (torn temp file, destination untouched) |
//! | `TruncateAt(n)` | reads observe only the first n bytes of the file |
//! | `BitFlip(n)` | reads observe bit 0 of byte n (mod file length) flipped |
//!
//! [`FaultPlan::for_paths`] scopes the fault to paths containing a
//! substring, so a fault aimed at one file cannot perturb unrelated IO.
//! Read-side corruption (`TruncateAt`, `BitFlip`) never modifies the
//! on-disk file — it simulates media corruption while keeping the
//! original bytes available for post-mortem.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One class of injected storage fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Reads observe only the first N bytes.
    TruncateAt(usize),
    /// Reads observe bit 0 of byte N (mod file length) flipped.
    BitFlip(usize),
    /// The (nth+1)-th matching read fails with an IO error.
    ReadErr {
        /// 0-based index of the failing read.
        nth: usize,
    },
    /// The (nth+1)-th matching write fails after writing half the temp
    /// file, simulating a crash mid-write. The destination is untouched.
    WriteErr {
        /// 0-based index of the failing write.
        nth: usize,
    },
    /// Reads fail with `NotFound`, as if the file were deleted.
    Missing,
}

/// A fault plus the paths it applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// What goes wrong.
    pub fault: Fault,
    /// Only paths containing this substring are affected (`None` = all).
    pub path_substr: Option<String>,
}

impl FaultPlan {
    /// A plan affecting every path.
    pub fn new(fault: Fault) -> Self {
        FaultPlan {
            fault,
            path_substr: None,
        }
    }

    /// Restrict the plan to paths containing `substr`.
    pub fn for_paths(mut self, substr: impl Into<String>) -> Self {
        self.path_substr = Some(substr.into());
        self
    }

    fn matches(&self, path: &Path) -> bool {
        match &self.path_substr {
            None => true,
            Some(s) => path.to_string_lossy().contains(s.as_str()),
        }
    }
}

struct State {
    plan: Option<FaultPlan>,
    reads: usize,
    writes: usize,
}

impl State {
    const fn with(plan: Option<FaultPlan>) -> State {
        State { plan, reads: 0, writes: 0 }
    }
}

static STATE: Mutex<State> = Mutex::new(State::with(None));

/// Every update of the state is one assignment, so a poisoned lock still
/// guards a valid state (and [`FaultGuard`]'s `Drop` must not panic).
fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keeps an installed plan active; dropping it restores "no plan" and
/// releases the cross-test serialization lock.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *state() = State::with(None);
    }
}

/// Install `plan` until the returned guard drops. Serializes callers: a
/// second `install` blocks until the first guard is dropped, so parallel
/// tests never observe each other's faults.
pub fn install(plan: FaultPlan) -> FaultGuard {
    static SERIAL: Mutex<()> = Mutex::new(());
    let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    *state() = State::with(Some(plan));
    FaultGuard { _serial: serial }
}

fn injected(msg: &str) -> io::Error {
    io::Error::other(format!("injected fault: {msg}"))
}

/// Tally an injected fault that actually fired (not merely installed) so
/// the resilience ladder's behaviour can be correlated with its cause:
/// `aqp_fault_injected_total{kind=...}` plus a structured warn event.
fn fault_hit(kind: &'static str, path: &Path) {
    aqp_obs::counter("aqp_fault_injected_total", &[("kind", kind)]).inc();
    aqp_obs::event::warn(
        "storage::fault",
        "injected storage fault fired",
        &[("kind", kind), ("path", &path.to_string_lossy())],
    );
}

/// Read a whole file, applying any installed read-side fault.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let fault = {
        let mut st = state();
        match &st.plan {
            Some(p) if p.matches(path) => match p.fault {
                Fault::ReadErr { nth } => {
                    let hit = st.reads == nth;
                    st.reads += 1;
                    if hit {
                        drop(st);
                        fault_hit("read-err", path);
                        return Err(injected("read error"));
                    }
                    None
                }
                Fault::Missing => {
                    drop(st);
                    fault_hit("missing", path);
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("injected fault: {} missing", path.display()),
                    ));
                }
                ref f => Some(f.clone()),
            },
            _ => None,
        }
    };
    let mut bytes = std::fs::read(path)?;
    match fault {
        Some(Fault::TruncateAt(n)) => {
            bytes.truncate(n);
            fault_hit("truncate", path);
        }
        Some(Fault::BitFlip(n)) if !bytes.is_empty() => {
            let i = n % bytes.len();
            bytes[i] ^= 1;
            fault_hit("bitflip", path);
        }
        _ => {}
    }
    Ok(bytes)
}

/// Write a whole file atomically: write to a sibling temp file, then
/// rename over the destination. A crash (or injected `WriteErr`) mid-write
/// leaves the destination untouched — readers see either the old bytes or
/// the new bytes, never a torn mix.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let write_fails = {
        let mut st = state();
        match &st.plan {
            Some(p) if p.matches(path) => match p.fault {
                Fault::WriteErr { nth } => {
                    let hit = st.writes == nth;
                    st.writes += 1;
                    hit
                }
                _ => false,
            },
            _ => false,
        }
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    if write_fails {
        // Simulate a crash mid-write: half the payload reaches the temp
        // file, the destination is never touched.
        fault_hit("write-err", path);
        let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
        return Err(injected("write error"));
    }
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Move a corrupt file aside to `<path>.corrupt` so subsequent loads do
/// not retry it. Best-effort: returns the quarantine path on success.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut q = path.as_os_str().to_owned();
    q.push(".corrupt");
    let q = PathBuf::from(q);
    let moved = std::fs::rename(path, &q).ok().map(|_| q);
    if let Some(q) = &moved {
        aqp_obs::counter("aqp_quarantine_total", &[]).inc();
        aqp_obs::event::warn(
            "storage::fault",
            "quarantined corrupt file",
            &[
                ("path", &path.to_string_lossy()),
                ("quarantine", &q.to_string_lossy()),
            ],
        );
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aqp_fault_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn read_faults_apply_and_clear() {
        let path = temp_path("read_faults.bin");
        write_file_atomic(&path, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();

        {
            let _g = install(FaultPlan::new(Fault::TruncateAt(3)).for_paths("read_faults"));
            assert_eq!(read_file(&path).unwrap(), vec![1, 2, 3]);
        }
        {
            let _g = install(FaultPlan::new(Fault::BitFlip(1)).for_paths("read_faults"));
            assert_eq!(read_file(&path).unwrap()[1], 3);
        }
        {
            let _g = install(FaultPlan::new(Fault::Missing).for_paths("read_faults"));
            assert_eq!(
                read_file(&path).unwrap_err().kind(),
                std::io::ErrorKind::NotFound
            );
        }
        {
            let _g = install(FaultPlan::new(Fault::ReadErr { nth: 1 }).for_paths("read_faults"));
            assert!(read_file(&path).is_ok(), "read 0 succeeds");
            assert!(read_file(&path).is_err(), "read 1 fails");
            assert!(read_file(&path).is_ok(), "read 2 succeeds");
        }
        // Guard dropped: no faults remain.
        assert_eq!(read_file(&path).unwrap().len(), 8);
    }

    #[test]
    fn scoped_fault_ignores_other_paths() {
        let path = temp_path("unrelated.bin");
        write_file_atomic(&path, b"hello").unwrap();
        let _g = install(FaultPlan::new(Fault::Missing).for_paths("some-other-file"));
        assert_eq!(read_file(&path).unwrap(), b"hello");
    }

    #[test]
    fn atomic_write_survives_injected_crash() {
        let path = temp_path("atomic.bin");
        write_file_atomic(&path, b"generation-1").unwrap();
        {
            let _g = install(FaultPlan::new(Fault::WriteErr { nth: 0 }).for_paths("atomic"));
            assert!(write_file_atomic(&path, b"generation-2").is_err());
        }
        // The old bytes survive the torn write.
        assert_eq!(read_file(&path).unwrap(), b"generation-1");
        write_file_atomic(&path, b"generation-2").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"generation-2");
    }

    #[test]
    fn quarantine_moves_file_aside() {
        let path = temp_path("bad.bin");
        write_file_atomic(&path, b"junk").unwrap();
        let q = quarantine(&path).expect("quarantine succeeds");
        assert!(!path.exists());
        assert!(q.exists());
        assert!(q.to_string_lossy().ends_with(".corrupt"));
        assert_eq!(quarantine(&path), None, "already moved");
    }
}

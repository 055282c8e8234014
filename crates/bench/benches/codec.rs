//! Micro-benchmarks of the answer codec: the shortest round-trip `f64`
//! writer, and an answer frame's encode and decode.
//!
//! Each line prints a per-unit figure (ns per number, ns per frame byte),
//! the best of several timed batches: interference only adds time. The
//! frames are the shape of `tests/codec_wire.rs`'s `synthetic(groups)` at
//! 19 and 395 groups, the median narrow and wide answers.
//!
//! ```text
//! cargo bench -p aqp-bench --bench codec
//! ```

use aqp::obs::json;
use aqp::serving::protocol::{WireGroup, WireValue};
use aqp::serving::{Response, WireAnswer};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The fastest of 200 batches of `batch` calls to `call`, in ns per
/// call. Interference on a shared host only adds time, so the minimum
/// of many short batches is the figure that repeats.
fn best_ns_per_call(batch: usize, mut call: impl FnMut()) -> f64 {
    (0..200)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                call();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// 4 096 numbers of each class, interleaved: integral counts, fractions
/// whose shortest form has 17 significant digits, and subnormals.
fn number_mix() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0xF64);
    let mut mix = Vec::with_capacity(3 * 4096);
    while mix.len() < 3 * 4096 {
        mix.push(rng.random_range(0..10_000_000i64) as f64);
        let fraction = loop {
            let v = rng.random::<f64>() * 10f64.powi(rng.random_range(-3..9i32));
            let digits = format!("{v:e}").split('e').next().map_or(0, |m| m.len() - 1);
            if digits == 17 {
                break v;
            }
        };
        mix.push(fraction);
        mix.push(f64::from_bits(rng.random_range(1..1u64 << 52)));
    }
    mix
}

/// The `synthetic(groups)` answer of `tests/codec_wire.rs`: two string
/// keys and one value object a group, about 125 bytes a group.
fn synthetic(groups: usize) -> Response {
    Response::Answer(WireAnswer {
        trace_id: "t-scale".into(),
        tier: "primary".into(),
        partial: false,
        deadline_limited: false,
        cache_hit: false,
        rows_scanned: 34_256,
        effective_budget: None,
        elapsed_ms: 1.25,
        group_names: vec!["store.city".into(), "product.brand".into()],
        agg_aliases: vec!["rev".into()],
        groups: (0..groups)
            .map(|i| WireGroup {
                key: vec![
                    format!("city_{:05}", i % 977).into(),
                    format!("brand \"{}\"", i % 31).into(),
                ],
                values: vec![WireValue {
                    estimate: i as f64 * 1.37 + 0.11,
                    lo: i as f64 * 1.31,
                    hi: i as f64 * 1.43 + 0.5,
                    exact: i % 3 == 0,
                }],
            })
            .collect(),
    })
}

fn bench_write_f64(c: &mut Criterion) {
    let mix = number_mix();
    let mut group = c.benchmark_group("codec");
    let mut out = String::with_capacity(1 << 16);
    let mut write_all = |numbers: &[f64]| {
        out.clear();
        for &v in numbers {
            json::write_f64(&mut out, black_box(v));
        }
        black_box(out.len());
    };
    let classes = [
        ("mix", mix.clone()),
        ("integral", mix.iter().copied().step_by(3).collect()),
        ("17-digit", mix.iter().copied().skip(1).step_by(3).collect()),
        ("subnormal", mix.iter().copied().skip(2).step_by(3).collect::<Vec<_>>()),
    ];
    for (name, numbers) in &classes {
        let ns = best_ns_per_call(1, || write_all(numbers)) / numbers.len() as f64;
        println!("codec/write_f64/{name}: {ns:.1} ns/number");
    }
    group.bench_function("write_f64/mix", |b| b.iter(|| write_all(&mix)));
    group.finish();
}

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for groups in [19, 395] {
        let response = synthetic(groups);
        let payload = response.to_json();
        let bytes = payload.len() as f64;
        let batch = 8_000 / groups;
        let mut out = String::with_capacity(payload.len());
        let encode = best_ns_per_call(batch, || {
            out.clear();
            black_box(&response).write_json(&mut out);
            black_box(out.len());
        });
        let decode = best_ns_per_call(batch, || {
            black_box(Response::from_json(black_box(&payload)).expect("decodes"));
        });
        println!(
            "codec/frame/{groups}: {} B, encode {:.2} ns/byte ({:.1} us), decode {:.2} ns/byte ({:.1} us)",
            payload.len(),
            encode / bytes,
            encode / 1e3,
            decode / bytes,
            decode / 1e3
        );
        group.bench_function(format!("from_json/{groups}"), |b| {
            b.iter(|| Response::from_json(&payload).expect("decodes"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write_f64, bench_frames);
criterion_main!(benches);

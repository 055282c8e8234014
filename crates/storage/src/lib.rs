//! # aqp-storage
//!
//! In-memory columnar storage engine used as the substrate for the
//! dynamic-sample-selection approximate query processing (AQP) system.
//!
//! The engine provides:
//!
//! * typed columns ([`Column`]) over 64-bit integers, 64-bit floats, booleans
//!   and dictionary-encoded UTF-8 strings ([`Codes`] sized to each
//!   column's dictionary), each with an optional null mask;
//! * [`Schema`]s and [`Table`]s with both row-at-a-time and columnar bulk
//!   construction;
//! * a variable-width per-row [`BitSet`] column ([`BitmaskColumn`]) used by
//!   small group sampling to tag each sample row with the set of sample
//!   tables that contain it (Section 4.2.1 of the paper), generalised beyond
//!   64 columns;
//! * lightweight per-column statistics ([`stats::ColumnStats`]).
//!
//! Everything is deliberately self-contained: no external storage formats,
//! no I/O. Tables live in memory, which is what the paper's middleware
//! architecture assumes of the sample tables it touches at runtime.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitmask;
pub mod codes;
pub mod column;
pub mod crc;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod fault;
pub mod io;
pub mod morsel;
pub mod nulls;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod zonemap;

pub use bitmask::{BitSet, BitmaskColumn};
pub use codes::Codes;
pub use column::{Column, ColumnBuilder};
pub use crc::crc32c;
pub use csv::{read_csv_file, table_from_csv, table_to_csv, write_csv_file};
pub use dictionary::Dictionary;
pub use error::{StorageError, StorageResult};
pub use fault::{Fault, FaultGuard, FaultPlan};
pub use io::{decode_table, encode_table, read_table_file, write_table_file, TableDecoder};
pub use morsel::{morsels, Morsel, MorselIter, DEFAULT_MORSEL_ROWS};
pub use nulls::NullMask;
pub use schema::{Field, Schema, SchemaBuilder};
pub use stats::ColumnStats;
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value, ValueRef};
pub use zonemap::{BlockBounds, BlockSummary, ColumnZoneMap, ZoneMaps, ZONE_BLOCK_ROWS};

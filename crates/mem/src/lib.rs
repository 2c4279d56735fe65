//! Conventional memory-hierarchy substrates for the Light NUCA reproduction.
//!
//! The paper evaluates L-NUCA against a conventional three-level hierarchy
//! (32 KB L1, 256 KB L2, 8 MB L3) and on top of an 8 MB D-NUCA. This crate
//! provides the building blocks those hierarchies are assembled from:
//!
//! * [`CacheGeometry`] — size/associativity/block-size bookkeeping,
//! * [`CacheArray`] — a tag/data array with pluggable [`ReplacementPolicy`],
//! * [`MshrFile`] — miss status holding registers with secondary-miss merging,
//! * [`WriteBuffer`] — a coalescing write buffer,
//! * [`ConventionalCache`] — a timed set-associative cache (completion and
//!   initiation latencies, serial/parallel access, write-through/copy-back),
//! * [`MainMemory`] — the DRAM model (first chunk + inter-chunk latency),
//! * [`probe`] — the [`ProbeSink`] instrumentation hooks the hierarchies in
//!   `lnuca-sim` report functional state transitions through (no-op by
//!   default; the differential oracle in `lnuca-verify` records them).
//!
//! # Example
//!
//! ```
//! use lnuca_mem::{CacheConfig, ConventionalCache, WritePolicy, AccessMode};
//! use lnuca_types::Addr;
//!
//! let cfg = CacheConfig::builder("L2")
//!     .size_bytes(256 * 1024)
//!     .ways(8)
//!     .block_size(64)
//!     .completion_cycles(4)
//!     .initiation_interval(2)
//!     .access_mode(AccessMode::Serial)
//!     .write_policy(WritePolicy::CopyBack)
//!     .build()?;
//! let mut l2 = ConventionalCache::new(cfg)?;
//! assert!(!l2.probe(Addr(0x1000)));
//! # Ok::<(), lnuca_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cache;
pub mod dram;
pub mod geometry;
pub mod mshr;
pub mod probe;
pub mod replacement;
pub mod write_buffer;

pub use array::{CacheArray, EvictedLine, Line};
pub use probe::{AccessClass, CountingProbe, NoProbe, ProbeEvent, ProbeSink};
pub use cache::{
    AccessMode, AccessOutcome, CacheConfig, CacheConfigBuilder, CacheStats, ConventionalCache,
    WritePolicy,
};
pub use dram::{MainMemory, MemoryConfig};
pub use geometry::CacheGeometry;
pub use mshr::{MshrAllocation, MshrFile};
pub use replacement::ReplacementPolicy;
pub use write_buffer::WriteBuffer;

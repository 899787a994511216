//! # spillstore
//!
//! Spillable, partitioned hash storage for stream join state — the
//! XJoin-style substrate both join operators in this workspace build on.
//!
//! Each input stream's state is a [`PartitionedStore`]: a fixed number of
//! hash buckets, where every bucket has an **in-memory portion** and an
//! **on-disk portion** (paper §3.1, inherited from XJoin). When the state
//! reaches its memory threshold, *state relocation* moves the memory
//! portion of a victim bucket to disk pages; a later *disk join* reads
//! those pages back to finish the left-over joins.
//!
//! Modules:
//!
//! * [`page`] — the on-disk page format and the [`Record`] trait, both
//!   in the `punct_types::wire` codec.
//! * [`backend`] — the [`DiskBackend`] trait with two implementations:
//!   [`sim_disk::SimDisk`] (in-memory pages, used by the
//!   deterministic simulations) and [`file_disk::FileDisk`]
//!   (real files, validating the page format end-to-end).
//! * [`bucket`] / [`partition`] — buckets and the partitioned store.
//! * [`kernel`] — data-parallel tag-scan kernels (scalar / SWAR / AVX2)
//!   the bucket's probe, extract and retain scans run on.
//! * [`spill`] — victim-selection policies for state relocation.

pub mod backend;
pub mod bucket;
pub mod file_disk;
pub mod kernel;
pub mod page;
pub mod partition;
pub mod sim_disk;
pub mod spill;

pub use backend::{DiskBackend, IoStats, PageId};
pub use bucket::{tag_of_hash, tag_of_key, Bucket, TAG_FREE, TAG_UNKEYED};
pub use file_disk::FileDisk;
pub use kernel::ProbeKernel;
pub use page::{Page, Record};
pub use partition::{PartitionedStore, SpillCounters, SpillReport, StoreConfig};
pub use sim_disk::SimDisk;
pub use spill::SpillPolicy;

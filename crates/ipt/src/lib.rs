//! # fg-ipt — Intel Processor Trace, modelled bit-for-bit
//!
//! This crate reproduces the IPT mechanics the FlowGuard paper (HPCA 2017)
//! builds on:
//!
//! * [`packet`] — packet types and SDM wire formats (TNT with stop-bit
//!   compression, TIP with last-IP compression, PSB/PSBEND, FUP,
//!   TIP.PGE/PGD, PIP, CBR, MODE, OVF, PAD);
//! * [`encode`] — the hardware-side [`encode::PacketEncoder`] with the TNT
//!   shift register and last-IP compression (why tracing costs "<1 bit per
//!   retired instruction");
//! * [`decode`] — the packet-level [`decode::PacketParser`], including PSB
//!   re-synchronisation for wrapped/partial buffers;
//! * [`topa`] — the Table-of-Physical-Addresses output scheme with INT/STOP
//!   regions and PMI generation;
//! * [`msr`] — the `IA32_RTIT_*` MSR model with CPL and CR3 filtering;
//! * [`fast`] — packet-level TIP/TNT extraction (FlowGuard's fast-path
//!   primitive, no binary needed): TIP targets, their TNT runs and the
//!   seams (OVF, resync) the checker skips — the scalar reference scan and
//!   the one vectorized packet loop;
//! * [`incremental`] — the checkpointed [`incremental::IncrementalScanner`]
//!   that scans only bytes appended since the previous endpoint check, and
//!   that a cold vectorized scan runs once over the whole buffer;
//! * [`stream`] — the continuous [`stream::StreamConsumer`] draining the
//!   ToPA concurrently with execution, with frontier/residue tracking so a
//!   syscall-time check is a frontier compare plus a residue scan;
//! * [`flow`] — the instruction-flow layer ([`flow::FlowDecoder`] over the
//!   resumable [`flow::FlowMachine`]): the full, slow decoder that walks the
//!   binary to reconstruct complete flow;
//! * [`shard`] — PSB-sharded flow decode: each PSB-delimited shard decodes
//!   independently and a sequential [`shard::Stitcher`] pass validates the
//!   seams, making the slow path parallel without losing precision.
//!
//! The asymmetry between [`fast::scan`] (cost ∝ trace bytes) and
//! [`flow::FlowDecoder::decode`] (cost ∝ instructions executed) is the
//! paper's central performance tension, and what the ITC-CFG is designed to
//! exploit.

#![deny(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod fast;
pub mod flow;
pub mod incremental;
pub mod msr;
pub mod packet;
pub mod shard;
pub mod stream;
pub mod topa;

pub use decode::{find_psb, PacketAt, PacketError, PacketParser};
pub use encode::{PacketEncoder, TraceSink};
pub use fast::{scan_vectorized, Boundary, FastScan, TipEvent};
pub use flow::{BranchEvent, FlowDecoder, FlowError, FlowMachine, FlowTrace};
pub use incremental::{AppendInfo, IncrementalScanner};
pub use msr::{IptMsrs, RtitCtl};
pub use packet::{Packet, TntSeq};
pub use shard::{decode_shard, shard_spans, ShardDecode, StitchOutcome, Stitcher};
pub use stream::{DrainStats, StreamConsumer};
pub use topa::{Topa, TopaFlags, TopaRegion};

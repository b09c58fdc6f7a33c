//! `dice-fleet`: sharded multi-home DICE serving in one process.
//!
//! The single-home [`HomeGateway`](dice_gateway::HomeGateway) serves one
//! deployment; this crate is the fleet layer above it, built for 10k+
//! homes per process:
//!
//! - **Wire frames** ([`frame`]): a length-prefixed, versioned binary
//!   envelope around the gateway event frame, so ingestion crosses a real
//!   serialization boundary with explicit decode errors.
//! - **Routing** ([`router`]): a stable hash of the home id over N shards
//!   keeps each home's stream ordered through exactly one shard.
//! - **Shared models** ([`cache`]): homes with the same floor plan share
//!   one `Arc<DiceModel>`, so model memory scales with distinct plans,
//!   not homes.
//! - **Swept detection** ([`shard`]): each shard collects ready windows
//!   across its homes, correlation-checks them, then judges each home's
//!   engine session with the shard's one engine machinery,
//!   bit-identically to the single-home path.
//! - **The service** ([`service`]): thread-per-shard with bounded queues
//!   and back-pressure accounting; alarm output is invariant under the
//!   shard count.
//!
//! `dice-repro fleet-monitor` renders a deterministic multi-home run of
//! this stack; perfbench's fleet workloads measure its serving cost.

pub mod cache;
pub mod frame;
pub mod router;
pub mod service;
pub mod shard;
pub mod trace;

pub use cache::ModelCache;
pub use frame::{
    decode_frame_slice, decode_frames, encode_frame, encode_frame_into, FleetFrame,
    FleetFrameError, FrameIter, HomeId, FLEET_FRAME_VERSION, MAX_FRAME_BODY,
};
pub use router::{default_shards, shard_for_home};
pub use service::{Fleet, FleetConfig, FleetRun, FleetSender, FleetStats, HomeAlarms};
pub use shard::{ShardEngine, ShardStats};
pub use trace::TraceClock;

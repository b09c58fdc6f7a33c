//! Online ingestion substrate for the DICE reproduction.
//!
//! The paper's deployment (Figure 3.1) collects sensor data through
//! Raspberry-Pi aggregators into a home gateway running DICE. This crate
//! reproduces that path in-process: aggregator threads encode events into
//! compact frames and send them over channels; the [`HomeGateway`] merges
//! the streams in time order, closes one-minute windows, drives the
//! real-time engine, and pushes [`Alarm`]s the moment a fault is
//! identified. [`WindowClock`] and [`AlarmLedger`] hold the window and
//! alarm-cooldown rules, which the `dice-fleet` shard uses too.
//!
//! Streaming and offline replay are behaviorally identical — see the
//! `streaming_matches_offline_replay` test and the `gateway_e2e`
//! integration test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod boot;
mod gateway;
mod message;
mod stream;

pub use aggregator::{partition_by_device, spawn_aggregator};
pub use boot::{load_model, BootError, BootOptions};
pub use gateway::{Alarm, GatewayStats, HomeGateway};
pub use message::{
    decode_event, decode_event_slice, encode_event, encode_event_into, EventFrame, FrameError,
};
pub use stream::{AlarmLedger, WindowClock};

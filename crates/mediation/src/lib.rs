//! # sqlb-mediation
//!
//! The mediation/communication substrate on which Algorithm 1 runs.
//!
//! The paper's query allocation algorithm *forks* a request for the
//! consumer's intentions and, in parallel, a request to every candidate
//! provider for its intention, then *waits until* the intention vectors are
//! computed *or a timeout* elapses (Algorithm 1, lines 2–5). The
//! deterministic, in-process realization of that algorithm lives in
//! `sqlb-core::module`; this crate provides the concurrent realization used
//! when consumers and providers are real, independently-running agents:
//!
//! * [`protocol`] — the message types exchanged between the mediator and
//!   the participants (intention requests/replies, bid requests, allocation
//!   notices, connection hello/goodbye), their length-prefixed wire framing
//!   (hardened against hostile length prefixes) and the [`FrameAssembler`]
//!   that reassembles frames from stream chunk boundaries — the contract
//!   the socket transport (`sqlb-transport`) speaks on real connections;
//! * [`runtime`] — the participant contract every backend speaks: the
//!   [`ConsumerEndpoint`] / [`ProviderEndpoint`] traits and the
//!   [`RuntimeConfig`] timeout, served in-process by the reactor and over
//!   sockets by `sqlb-transport`;
//! * [`reactor`] — the asynchronous mediation reactor: participant
//!   endpoints as polled state machines driven by a single event loop
//!   with a readiness queue, a timer heap and per-endpoint deadline
//!   tracking, scaling one host to tens of thousands of endpoints. The mediator broadcasts requests,
//!   gathers replies until the deadline, treats missing replies as
//!   indifference, and notifies every candidate of the mediation result.
//!   Its batched [`AsyncMediator::gather_batch`] /
//!   [`AsyncMediator::mediate_batch`] are the native entry points.

#![deny(missing_docs)]

pub mod protocol;
pub mod reactor;
pub mod runtime;

pub use protocol::{
    decode_mediator_message, decode_participant_reply, encode_mediator_message,
    encode_mediator_message_into, encode_participant_reply, encode_participant_reply_into,
    FrameAssembler, FrameError, FrameReader, MediatorMessage, ParticipantReply, MAX_FRAME_PAYLOAD,
};
pub use reactor::{
    AsyncMediator, IntentionWave, Latency, ProviderAnswer, Reactor, RoundStats, WaveReplies,
};
pub use runtime::{ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};

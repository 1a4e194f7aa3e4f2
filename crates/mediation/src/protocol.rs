//! The message protocol between the mediator and the participants, and
//! its wire framing.
//!
//! The protocol mirrors the steps of Algorithm 1 and the mediation
//! architecture of Lamarre et al. \[10\] that the paper builds on: the
//! mediator asks the issuing consumer for its intentions towards the
//! candidate providers, asks every candidate provider for its intention
//! (and, for economic methods, its bid), and finally "sends the mediation
//! result to the `P_q \ \hat{P}_q` providers", i.e. also tells the
//! candidates that were *not* selected.
//!
//! Two request shapes exist side by side:
//!
//! * the **single-query** requests of the original runtime (one message
//!   per query per participant);
//! * the **wave** requests the reactor and the socket transport natively
//!   speak ([`MediatorMessage::ConsumerWaveRequest`] /
//!   [`MediatorMessage::ProviderWaveRequest`]): one message per
//!   participant covering every query of a mediation batch, answered in
//!   one reply. Waves are numbered so a reply that arrives after its
//!   wave's deadline can be recognized as stale and discarded.
//!
//! # Multiplexed connections
//!
//! A networked deployment runs one socket per *participant host*, not per
//! endpoint (`sqlb-transport`): a single connection carries the traffic
//! of every consumer and provider that host serves. Three protocol
//! features exist for that topology:
//!
//! * wave requests and result notices carry their **addressee** (the
//!   `consumer` / `provider` field), so the host can dispatch them to the
//!   right endpoint;
//! * a connection opens with [`ParticipantReply::Hello`] declaring the
//!   endpoints the host serves, and closes with
//!   [`ParticipantReply::Goodbye`] (or a mediator-initiated
//!   [`MediatorMessage::Shutdown`]);
//! * [`MediatorMessage::WaveEnd`] brackets a wave on each connection: the
//!   host buffers requests until it sees the marker, then answers them
//!   all — which also keeps both sides' socket buffers drained (neither
//!   end ever blocks writing while the other is blocked writing too).
//!
//! Wave requests carry the **full query** `q = <c, d, n>` (not just its
//! id): a remote endpoint needs the class, description and cost to
//! compute its Definition 7/8 intention, and the engine's determinism
//! contract relies on the decoded query being bit-identical to the
//! encoded one (`f64`s travel as raw IEEE-754 bits).
//!
//! # Framing
//!
//! In-process backends pass these values directly, but a networked
//! deployment puts them on a byte stream. [`encode_mediator_message`] /
//! [`decode_mediator_message`] (and the `participant_reply` pair) define
//! that wire contract: each message is one *frame* —
//!
//! ```text
//! [u32 LE: payload length] [u8: variant tag] [payload…]
//! ```
//!
//! — with all integers little-endian, `f64`s as their IEEE-754 bits,
//! strings as a `u32` byte count followed by UTF-8 bytes, vectors as a
//! `u32` count followed by the elements, and options as a `0`/`1`
//! presence byte. Decoding never panics on malformed input: a short
//! buffer yields [`FrameError::Truncated`], an unknown tag
//! [`FrameError::UnknownTag`], a frame whose payload disagrees with its
//! declared length [`FrameError::TrailingBytes`], and a declared payload
//! beyond [`MAX_FRAME_PAYLOAD`] is rejected as [`FrameError::Oversized`]
//! *before* any allocation happens — a hostile 4 GiB length prefix
//! cannot OOM the mediator. Frames are self-delimiting, so a stream of
//! them can be decoded back-to-back; [`FrameAssembler`] reassembles them
//! from the arbitrary chunk boundaries a stream transport delivers.

use sqlb_core::allocation::Bid;
use sqlb_obs::{HistogramSummary, ObsSnapshot};
use sqlb_types::{
    ConsumerId, ProviderId, Query, QueryClass, QueryDescription, QueryId, SimTime, WorkUnits,
};

/// Upper bound on a frame's declared payload length (16 MiB).
///
/// Real frames are a few hundred bytes; even a full 50 000-endpoint wave
/// reply stays well under a megabyte. The cap exists so a corrupted or
/// hostile length prefix is rejected with [`FrameError::Oversized`]
/// before the decoder (or a [`FrameAssembler`]) commits any memory to it.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Messages sent by the mediator to participants.
#[derive(Debug, Clone, PartialEq)]
pub enum MediatorMessage {
    /// Ask the consumer for its intentions towards the candidate providers
    /// of one of its queries (Algorithm 1, line 2).
    ConsumerIntentionRequest {
        /// The query being allocated.
        query: QueryId,
        /// The candidate set `P_q`.
        candidates: Vec<ProviderId>,
    },
    /// Ask a provider for its intention to perform a query
    /// (Algorithm 1, lines 3–4).
    ProviderIntentionRequest {
        /// The query being allocated.
        query: QueryId,
        /// Whether the provider should also return a bid (economic
        /// methods).
        request_bid: bool,
    },
    /// Ask the consumer for its intentions for *every* query of one
    /// mediation wave, in one round-trip (the shape the reactor and the
    /// socket transport natively speak).
    ConsumerWaveRequest {
        /// Identifier of the wave the replies belong to.
        wave: u64,
        /// The consumer this request is addressed to (a multiplexed host
        /// connection carries requests for many endpoints).
        consumer: ConsumerId,
        /// One entry per query of the consumer's in this wave: the full
        /// query and its candidate set.
        requests: Vec<(Query, Vec<ProviderId>)>,
    },
    /// Ask a provider for its intention (and optionally bid) for every
    /// query of one mediation wave that lists it as a candidate.
    ProviderWaveRequest {
        /// Identifier of the wave the replies belong to.
        wave: u64,
        /// The provider this request is addressed to.
        provider: ProviderId,
        /// The full queries the provider is a candidate for.
        queries: Vec<Query>,
        /// Whether the provider should also return bids.
        request_bids: bool,
    },
    /// Notify a candidate provider of the mediation result
    /// (Algorithm 1, lines 9–10).
    AllocationNotice {
        /// The query that was allocated.
        query: QueryId,
        /// The candidate provider this notice is addressed to.
        provider: ProviderId,
        /// Whether this provider was selected to perform the query.
        selected: bool,
    },
    /// Notify the consumer of the final allocation.
    AllocationResult {
        /// The query that was allocated.
        query: QueryId,
        /// The consumer this result is addressed to.
        consumer: ConsumerId,
        /// The providers the query was allocated to.
        providers: Vec<ProviderId>,
    },
    /// Ask the participant (host) to shut down (used when tearing the
    /// runtime or a transport connection down).
    Shutdown,
    /// Marks the end of a wave's requests on one connection: every
    /// request of `wave` addressed to this host has been sent, and the
    /// host should now compute and send its replies.
    WaveEnd {
        /// The wave whose requests are complete.
        wave: u64,
    },
    /// A point-in-time observability snapshot of the wave server,
    /// answering a [`ParticipantReply::StatsRequest`] on the same
    /// connection (the live-introspection endpoint).
    StatsReply {
        /// The server's instrument snapshot at the moment the request
        /// was serviced.
        snapshot: ObsSnapshot,
    },
}

/// Replies sent by participants to the mediator.
#[derive(Debug, Clone, PartialEq)]
pub enum ParticipantReply {
    /// The consumer's intentions towards the candidate providers.
    ConsumerIntentions {
        /// The query the intentions are about.
        query: QueryId,
        /// The consumer that answered.
        consumer: ConsumerId,
        /// One `(provider, intention)` pair per candidate.
        intentions: Vec<(ProviderId, f64)>,
    },
    /// A provider's intention (and optional bid) for a query.
    ProviderIntention {
        /// The query the intention is about.
        query: QueryId,
        /// The provider that answered.
        provider: ProviderId,
        /// The provider's intention `pi_p(q)`.
        intention: f64,
        /// The provider's bid, when requested.
        bid: Option<Bid>,
    },
    /// A consumer's answer to a [`MediatorMessage::ConsumerWaveRequest`].
    ConsumerWaveReply {
        /// The wave this reply answers.
        wave: u64,
        /// The consumer that answered.
        consumer: ConsumerId,
        /// Per query of the wave, one `(provider, intention)` pair per
        /// candidate.
        intentions: Vec<(QueryId, Vec<(ProviderId, f64)>)>,
    },
    /// A provider's answer to a [`MediatorMessage::ProviderWaveRequest`].
    ProviderWaveReply {
        /// The wave this reply answers.
        wave: u64,
        /// The provider that answered.
        provider: ProviderId,
        /// The provider's current utilization `Ut(p)`, shown to the
        /// mediator alongside its intentions (utilization-aware methods
        /// such as the Capacity-based baseline rank by it).
        utilization: f64,
        /// One `(query, intention, bid)` triple per query of the wave.
        intentions: Vec<(QueryId, f64, Option<Bid>)>,
    },
    /// Opens a host connection: declares the consumer and provider
    /// endpoints this host serves, so the mediator can route their wave
    /// requests over this connection.
    Hello {
        /// The consumer endpoints the host multiplexes.
        consumers: Vec<ConsumerId>,
        /// The provider endpoints the host multiplexes.
        providers: Vec<ProviderId>,
    },
    /// Closes a host connection cleanly (sent by the host, either
    /// spontaneously on departure or in response to
    /// [`MediatorMessage::Shutdown`]).
    Goodbye,
    /// Asks the wave server for a point-in-time observability snapshot,
    /// answered with a [`MediatorMessage::StatsReply`] on this
    /// connection. Any connected host may send it at any moment —
    /// including mid-run, between or during waves.
    StatsRequest,
}

impl ParticipantReply {
    /// The query a single-query reply is about; `None` for wave replies,
    /// which cover several queries at once, and for connection-lifecycle
    /// messages.
    pub fn query(&self) -> Option<QueryId> {
        match self {
            ParticipantReply::ConsumerIntentions { query, .. } => Some(*query),
            ParticipantReply::ProviderIntention { query, .. } => Some(*query),
            _ => None,
        }
    }

    /// The wave a wave reply answers; `None` for single-query replies and
    /// connection-lifecycle messages.
    pub fn wave(&self) -> Option<u64> {
        match self {
            ParticipantReply::ConsumerWaveReply { wave, .. } => Some(*wave),
            ParticipantReply::ProviderWaveReply { wave, .. } => Some(*wave),
            _ => None,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the frame did.
    Truncated,
    /// The frame's variant tag is not part of the protocol.
    UnknownTag(u8),
    /// The frame's content disagrees with its declared length: either a
    /// field ran past the end of the declared payload, or decoding
    /// finished with undeclared bytes left over. Both mean the frame
    /// lied about its size.
    TrailingBytes,
    /// The frame declared a payload longer than [`MAX_FRAME_PAYLOAD`].
    /// Rejected before any allocation is made for it, so a hostile
    /// length prefix cannot drive an out-of-memory condition.
    Oversized(u32),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            FrameError::TrailingBytes => {
                write!(f, "frame content disagrees with its declared length")
            }
            FrameError::Oversized(len) => write!(
                f,
                "frame declares a {len}-byte payload, over the {MAX_FRAME_PAYLOAD}-byte cap"
            ),
            FrameError::InvalidUtf8 => write!(f, "frame string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---- encoding ----------------------------------------------------------

/// Appends one frame to a caller-owned buffer, so encoders can reuse a
/// scratch buffer across messages instead of allocating a `Vec<u8>` per
/// frame (the send path of a 10k-endpoint wave encodes tens of
/// thousands of messages).
struct FrameWriter<'a> {
    buf: &'a mut Vec<u8>,
    /// Offset of this frame's length prefix in `buf`; patched in
    /// `finish()`.
    start: usize,
}

impl<'a> FrameWriter<'a> {
    fn over(buf: &'a mut Vec<u8>, tag: u8) -> Self {
        // Length placeholder first; patched in finish().
        let start = buf.len();
        buf.extend_from_slice(&[0, 0, 0, 0]);
        buf.push(tag);
        FrameWriter { buf, start }
    }

    fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    fn bool(&mut self, value: bool) {
        self.buf.push(value as u8);
    }

    fn u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn str(&mut self, value: &str) {
        self.count(value.len());
        self.buf.extend_from_slice(value.as_bytes());
    }

    fn bid(&mut self, bid: &Option<Bid>) {
        match bid {
            None => self.u8(0),
            Some(bid) => {
                self.u8(1);
                self.f64(bid.price);
                self.f64(bid.delay);
            }
        }
    }

    /// The full query `q = <c, d, n>` plus id and issue time. Wave
    /// requests carry it so a remote endpoint can compute its intention;
    /// `f64`s travel as raw bits, so the decoded query is bit-identical.
    fn query(&mut self, query: &Query) {
        self.u32(query.id.raw());
        self.u32(query.consumer.raw());
        self.str(&query.description.topic);
        self.count(query.description.attributes.len());
        for attribute in &query.description.attributes {
            self.str(attribute);
        }
        match query.description.class {
            QueryClass::Light => self.u8(0),
            QueryClass::Heavy => self.u8(1),
            QueryClass::Custom(tag) => {
                self.u8(2);
                self.u16(tag);
            }
        }
        self.f64(query.description.cost.value());
        self.u32(query.n);
        self.f64(query.issued_at.as_secs());
    }

    fn count(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("protocol vectors fit in u32"));
    }

    fn finish(self) {
        let payload = (self.buf.len() - self.start - 4) as u32;
        self.buf[self.start..self.start + 4].copy_from_slice(&payload.to_le_bytes());
    }
}

/// Encodes a mediator message as one self-delimiting frame.
pub fn encode_mediator_message(message: &MediatorMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_mediator_message_into(message, &mut out);
    out
}

/// Appends a mediator message's frame to `out`, which may already hold
/// other frames — the zero-allocation encode path: a caller framing a
/// whole wave reuses one scratch buffer for every message of the burst.
pub fn encode_mediator_message_into(message: &MediatorMessage, out: &mut Vec<u8>) {
    match message {
        MediatorMessage::ConsumerIntentionRequest { query, candidates } => {
            let mut w = FrameWriter::over(out, 1);
            w.u32(query.raw());
            w.count(candidates.len());
            for p in candidates {
                w.u32(p.raw());
            }
            w.finish()
        }
        MediatorMessage::ProviderIntentionRequest { query, request_bid } => {
            let mut w = FrameWriter::over(out, 2);
            w.u32(query.raw());
            w.bool(*request_bid);
            w.finish()
        }
        MediatorMessage::ConsumerWaveRequest {
            wave,
            consumer,
            requests,
        } => {
            let mut w = FrameWriter::over(out, 3);
            w.u64(*wave);
            w.u32(consumer.raw());
            w.count(requests.len());
            for (query, candidates) in requests {
                w.query(query);
                w.count(candidates.len());
                for p in candidates {
                    w.u32(p.raw());
                }
            }
            w.finish()
        }
        MediatorMessage::ProviderWaveRequest {
            wave,
            provider,
            queries,
            request_bids,
        } => {
            let mut w = FrameWriter::over(out, 4);
            w.u64(*wave);
            w.u32(provider.raw());
            w.count(queries.len());
            for query in queries {
                w.query(query);
            }
            w.bool(*request_bids);
            w.finish()
        }
        MediatorMessage::AllocationNotice {
            query,
            provider,
            selected,
        } => {
            let mut w = FrameWriter::over(out, 5);
            w.u32(query.raw());
            w.u32(provider.raw());
            w.bool(*selected);
            w.finish()
        }
        MediatorMessage::AllocationResult {
            query,
            consumer,
            providers,
        } => {
            let mut w = FrameWriter::over(out, 6);
            w.u32(query.raw());
            w.u32(consumer.raw());
            w.count(providers.len());
            for p in providers {
                w.u32(p.raw());
            }
            w.finish()
        }
        MediatorMessage::Shutdown => FrameWriter::over(out, 7).finish(),
        MediatorMessage::WaveEnd { wave } => {
            let mut w = FrameWriter::over(out, 8);
            w.u64(*wave);
            w.finish()
        }
        MediatorMessage::StatsReply { snapshot } => {
            let mut w = FrameWriter::over(out, 9);
            w.count(snapshot.counters.len());
            for (name, value) in &snapshot.counters {
                w.str(name);
                w.u64(*value);
            }
            w.count(snapshot.gauges.len());
            for (name, value) in &snapshot.gauges {
                w.str(name);
                // Gauges are signed; travel as two's-complement bits.
                w.u64(*value as u64);
            }
            w.count(snapshot.histograms.len());
            for (name, summary) in &snapshot.histograms {
                w.str(name);
                w.u64(summary.count);
                w.f64(summary.p50);
                w.f64(summary.p95);
                w.f64(summary.p99);
                w.f64(summary.max);
            }
            w.finish()
        }
    }
}

/// Encodes a participant reply as one self-delimiting frame.
pub fn encode_participant_reply(reply: &ParticipantReply) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_participant_reply_into(reply, &mut out);
    out
}

/// Appends a participant reply's frame to `out` (see
/// [`encode_mediator_message_into`]).
pub fn encode_participant_reply_into(reply: &ParticipantReply, out: &mut Vec<u8>) {
    match reply {
        ParticipantReply::ConsumerIntentions {
            query,
            consumer,
            intentions,
        } => {
            let mut w = FrameWriter::over(out, 1);
            w.u32(query.raw());
            w.u32(consumer.raw());
            w.count(intentions.len());
            for (p, intention) in intentions {
                w.u32(p.raw());
                w.f64(*intention);
            }
            w.finish()
        }
        ParticipantReply::ProviderIntention {
            query,
            provider,
            intention,
            bid,
        } => {
            let mut w = FrameWriter::over(out, 2);
            w.u32(query.raw());
            w.u32(provider.raw());
            w.f64(*intention);
            w.bid(bid);
            w.finish()
        }
        ParticipantReply::ConsumerWaveReply {
            wave,
            consumer,
            intentions,
        } => {
            let mut w = FrameWriter::over(out, 3);
            w.u64(*wave);
            w.u32(consumer.raw());
            w.count(intentions.len());
            for (query, per_provider) in intentions {
                w.u32(query.raw());
                w.count(per_provider.len());
                for (p, intention) in per_provider {
                    w.u32(p.raw());
                    w.f64(*intention);
                }
            }
            w.finish()
        }
        ParticipantReply::ProviderWaveReply {
            wave,
            provider,
            utilization,
            intentions,
        } => {
            let mut w = FrameWriter::over(out, 4);
            w.u64(*wave);
            w.u32(provider.raw());
            w.f64(*utilization);
            w.count(intentions.len());
            for (query, intention, bid) in intentions {
                w.u32(query.raw());
                w.f64(*intention);
                w.bid(bid);
            }
            w.finish()
        }
        ParticipantReply::Hello {
            consumers,
            providers,
        } => {
            let mut w = FrameWriter::over(out, 5);
            w.count(consumers.len());
            for c in consumers {
                w.u32(c.raw());
            }
            w.count(providers.len());
            for p in providers {
                w.u32(p.raw());
            }
            w.finish()
        }
        ParticipantReply::Goodbye => FrameWriter::over(out, 6).finish(),
        ParticipantReply::StatsRequest => FrameWriter::over(out, 7).finish(),
    }
}

// ---- decoding ----------------------------------------------------------

/// An in-place reader over one frame's bytes: every scalar accessor
/// reads directly from the borrowed slice, so a consumer that only
/// needs scalars (ids, intentions, wave numbers) decodes a frame
/// without allocating anything.
///
/// Public so zero-copy consumers (the wave server's reply hot path) can
/// decode the frames [`FrameAssembler::next_frame`] hands out without
/// first materializing an owned [`ParticipantReply`]; the general
/// decoders ([`decode_mediator_message`] / [`decode_participant_reply`])
/// are built on the same reader.
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    at: usize,
    end: usize,
}

impl<'a> FrameReader<'a> {
    /// Opens the frame at the start of `bytes`: reads the length prefix
    /// and bounds the reader to the declared payload. A declared payload
    /// over [`MAX_FRAME_PAYLOAD`] is rejected before anything else.
    pub fn open(bytes: &'a [u8]) -> Result<Self, FrameError> {
        if bytes.len() < 4 {
            return Err(FrameError::Truncated);
        }
        let declared = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let payload = declared as usize;
        if payload > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized(declared));
        }
        let end = 4 + payload;
        if bytes.len() < end {
            return Err(FrameError::Truncated);
        }
        Ok(FrameReader { bytes, at: 4, end })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let next = self.at.checked_add(n).ok_or(FrameError::TrailingBytes)?;
        if next > self.end {
            return Err(FrameError::TrailingBytes);
        }
        let slice = &self.bytes[self.at..next];
        self.at = next;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a presence/flag byte.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        Ok(self.u8()? != 0)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32` in place.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64` in place.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its raw IEEE-754 bits (the bit-identity
    /// contract: no parse, no rounding).
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| FrameError::InvalidUtf8)
    }

    /// Reads an optional bid (presence byte, then price and delay).
    pub fn bid(&mut self) -> Result<Option<Bid>, FrameError> {
        if self.bool()? {
            Ok(Some(Bid::new(self.f64()?, self.f64()?)))
        } else {
            Ok(None)
        }
    }

    /// Mirror of [`FrameWriter::query`].
    fn query(&mut self) -> Result<Query, FrameError> {
        let id = QueryId::new(self.u32()?);
        let consumer = ConsumerId::new(self.u32()?);
        let topic = self.str()?;
        let attribute_count = self.count()?;
        let mut attributes = Vec::with_capacity(attribute_count);
        for _ in 0..attribute_count {
            attributes.push(self.str()?);
        }
        let class = match self.u8()? {
            0 => QueryClass::Light,
            1 => QueryClass::Heavy,
            2 => QueryClass::Custom(self.u16()?),
            _ => return Err(FrameError::TrailingBytes),
        };
        let cost = WorkUnits::new(self.f64()?);
        let n = self.u32()?;
        let issued_at = SimTime::from_secs(self.f64()?);
        Ok(Query {
            id,
            consumer,
            description: QueryDescription {
                topic,
                attributes,
                class,
                cost,
            },
            n,
            issued_at,
        })
    }

    /// A vector count, sanity-bounded by the bytes remaining in the frame
    /// (every element occupies at least one byte), so a corrupted count
    /// cannot drive a huge allocation.
    pub fn count(&mut self) -> Result<usize, FrameError> {
        let count = self.u32()? as usize;
        if count > self.end - self.at {
            return Err(FrameError::TrailingBytes);
        }
        Ok(count)
    }

    /// Total frame length, once fully consumed.
    pub fn close(self) -> Result<usize, FrameError> {
        if self.at != self.end {
            return Err(FrameError::TrailingBytes);
        }
        Ok(self.end)
    }
}

/// Decodes the mediator-message frame at the start of `bytes`, returning
/// the message and the number of bytes the frame occupied (so frames can
/// be decoded back-to-back from one stream).
pub fn decode_mediator_message(bytes: &[u8]) -> Result<(MediatorMessage, usize), FrameError> {
    let mut r = FrameReader::open(bytes)?;
    let tag = r.u8()?;
    let message = match tag {
        1 => {
            let query = QueryId::new(r.u32()?);
            let n = r.count()?;
            let mut candidates = Vec::with_capacity(n);
            for _ in 0..n {
                candidates.push(ProviderId::new(r.u32()?));
            }
            MediatorMessage::ConsumerIntentionRequest { query, candidates }
        }
        2 => MediatorMessage::ProviderIntentionRequest {
            query: QueryId::new(r.u32()?),
            request_bid: r.bool()?,
        },
        3 => {
            let wave = r.u64()?;
            let consumer = ConsumerId::new(r.u32()?);
            let n = r.count()?;
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let query = r.query()?;
                let c = r.count()?;
                let mut candidates = Vec::with_capacity(c);
                for _ in 0..c {
                    candidates.push(ProviderId::new(r.u32()?));
                }
                requests.push((query, candidates));
            }
            MediatorMessage::ConsumerWaveRequest {
                wave,
                consumer,
                requests,
            }
        }
        4 => {
            let wave = r.u64()?;
            let provider = ProviderId::new(r.u32()?);
            let n = r.count()?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(r.query()?);
            }
            MediatorMessage::ProviderWaveRequest {
                wave,
                provider,
                queries,
                request_bids: r.bool()?,
            }
        }
        5 => MediatorMessage::AllocationNotice {
            query: QueryId::new(r.u32()?),
            provider: ProviderId::new(r.u32()?),
            selected: r.bool()?,
        },
        6 => {
            let query = QueryId::new(r.u32()?);
            let consumer = ConsumerId::new(r.u32()?);
            let n = r.count()?;
            let mut providers = Vec::with_capacity(n);
            for _ in 0..n {
                providers.push(ProviderId::new(r.u32()?));
            }
            MediatorMessage::AllocationResult {
                query,
                consumer,
                providers,
            }
        }
        7 => MediatorMessage::Shutdown,
        8 => MediatorMessage::WaveEnd { wave: r.u64()? },
        9 => {
            let n = r.count()?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                counters.push((r.str()?, r.u64()?));
            }
            let n = r.count()?;
            let mut gauges = Vec::with_capacity(n);
            for _ in 0..n {
                gauges.push((r.str()?, r.u64()? as i64));
            }
            let n = r.count()?;
            let mut histograms = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                histograms.push((
                    name,
                    HistogramSummary {
                        count: r.u64()?,
                        p50: r.f64()?,
                        p95: r.f64()?,
                        p99: r.f64()?,
                        max: r.f64()?,
                    },
                ));
            }
            MediatorMessage::StatsReply {
                snapshot: ObsSnapshot {
                    counters,
                    gauges,
                    histograms,
                },
            }
        }
        tag => return Err(FrameError::UnknownTag(tag)),
    };
    Ok((message, r.close()?))
}

/// Decodes the participant-reply frame at the start of `bytes`, returning
/// the reply and the number of bytes the frame occupied.
pub fn decode_participant_reply(bytes: &[u8]) -> Result<(ParticipantReply, usize), FrameError> {
    let mut r = FrameReader::open(bytes)?;
    let tag = r.u8()?;
    let reply = match tag {
        1 => {
            let query = QueryId::new(r.u32()?);
            let consumer = ConsumerId::new(r.u32()?);
            let n = r.count()?;
            let mut intentions = Vec::with_capacity(n);
            for _ in 0..n {
                intentions.push((ProviderId::new(r.u32()?), r.f64()?));
            }
            ParticipantReply::ConsumerIntentions {
                query,
                consumer,
                intentions,
            }
        }
        2 => ParticipantReply::ProviderIntention {
            query: QueryId::new(r.u32()?),
            provider: ProviderId::new(r.u32()?),
            intention: r.f64()?,
            bid: r.bid()?,
        },
        3 => {
            let wave = r.u64()?;
            let consumer = ConsumerId::new(r.u32()?);
            let n = r.count()?;
            let mut intentions = Vec::with_capacity(n);
            for _ in 0..n {
                let query = QueryId::new(r.u32()?);
                let c = r.count()?;
                let mut per_provider = Vec::with_capacity(c);
                for _ in 0..c {
                    per_provider.push((ProviderId::new(r.u32()?), r.f64()?));
                }
                intentions.push((query, per_provider));
            }
            ParticipantReply::ConsumerWaveReply {
                wave,
                consumer,
                intentions,
            }
        }
        4 => {
            let wave = r.u64()?;
            let provider = ProviderId::new(r.u32()?);
            let utilization = r.f64()?;
            let n = r.count()?;
            let mut intentions = Vec::with_capacity(n);
            for _ in 0..n {
                intentions.push((QueryId::new(r.u32()?), r.f64()?, r.bid()?));
            }
            ParticipantReply::ProviderWaveReply {
                wave,
                provider,
                utilization,
                intentions,
            }
        }
        5 => {
            let n = r.count()?;
            let mut consumers = Vec::with_capacity(n);
            for _ in 0..n {
                consumers.push(ConsumerId::new(r.u32()?));
            }
            let n = r.count()?;
            let mut providers = Vec::with_capacity(n);
            for _ in 0..n {
                providers.push(ProviderId::new(r.u32()?));
            }
            ParticipantReply::Hello {
                consumers,
                providers,
            }
        }
        6 => ParticipantReply::Goodbye,
        7 => ParticipantReply::StatsRequest,
        tag => return Err(FrameError::UnknownTag(tag)),
    };
    Ok((reply, r.close()?))
}

// ---- stream reassembly -------------------------------------------------

/// Reassembles self-delimiting frames from the arbitrary chunk boundaries
/// a stream transport delivers.
///
/// A TCP or Unix-domain read can return any byte count: half a length
/// prefix, one and a half frames, three frames at once. The assembler
/// buffers whatever arrives ([`FrameAssembler::extend`]) and hands back
/// complete messages one at a time
/// ([`FrameAssembler::next_mediator_message`] /
/// [`FrameAssembler::next_participant_reply`]).
///
/// Hardening: the assembler never sizes an allocation from a declared
/// length — it only stores bytes actually received — and a length prefix
/// over [`MAX_FRAME_PAYLOAD`] fails with [`FrameError::Oversized`] as
/// soon as the four prefix bytes are in, so a hostile peer cannot make
/// it buffer without bound. After an error the stream offset is poisoned
/// (frame boundaries are lost); callers should drop the connection.
///
/// ```
/// use sqlb_mediation::{encode_mediator_message, FrameAssembler, MediatorMessage};
///
/// let frame = encode_mediator_message(&MediatorMessage::Shutdown);
/// let mut assembler = FrameAssembler::new();
/// // Feed the frame one byte at a time, as a slow socket might.
/// for &byte in &frame {
///     assembler.extend(&[byte]);
/// }
/// let decoded = assembler.next_mediator_message().unwrap().unwrap();
/// assert_eq!(decoded, MediatorMessage::Shutdown);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    at: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Buffers bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact consumed bytes away before growing, so the buffer's
        // footprint tracks the unconsumed tail, not the stream history.
        if self.at > 0 && (self.at == self.buf.len() || self.at >= 4096) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Reads from `reader` directly into the assembler's buffer — the
    /// zero-copy fill path: bytes land where the decoder will read them,
    /// with no intermediate stack chunk to copy out of. Consumed frames
    /// are compacted away first (a `memmove` of at most one partial
    /// trailing frame), so the buffer's footprint stays bounded by the
    /// unconsumed tail plus one read chunk. Returns what `reader.read`
    /// returned: the byte count, `Ok(0)` on EOF, or the I/O error.
    pub fn fill_from(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<usize> {
        /// Target read size: large enough to drain a burst of wave
        /// frames per syscall, small enough not to balloon idle
        /// connections.
        const READ_CHUNK: usize = 64 * 1024;
        if self.at > 0 {
            // Everything consumed: drop it all (no copy). Otherwise a
            // partial trailing frame moves to the front — the only copy
            // this path ever performs.
            if self.at == self.buf.len() {
                self.buf.clear();
            } else {
                self.buf.drain(..self.at);
            }
            self.at = 0;
        }
        let filled = self.buf.len();
        self.buf.resize(filled + READ_CHUNK, 0);
        let result = reader.read(&mut self.buf[filled..]);
        self.buf
            .truncate(filled + result.as_ref().copied().unwrap_or(0));
        result
    }

    /// Pops the complete frame at the head of the buffer — length prefix
    /// included — as a slice borrowed from the receive buffer: the
    /// zero-copy consume path ([`decode_mediator_message`] /
    /// [`decode_participant_reply`] and [`FrameReader`] all read scalars
    /// in place from such a slice). `Ok(None)` means "keep reading".
    /// The slice stays valid until the next `extend` / `fill_from` call.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let available = &self.buf[self.at..];
        if available.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([available[0], available[1], available[2], available[3]]);
        let payload = declared as usize;
        if payload > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized(declared));
        }
        let frame_len = 4 + payload;
        if available.len() < frame_len {
            return Ok(None);
        }
        let start = self.at;
        self.at += frame_len;
        Ok(Some(&self.buf[start..start + frame_len]))
    }

    /// Pops the next complete mediator message, or `Ok(None)` when more
    /// bytes are needed.
    pub fn next_mediator_message(&mut self) -> Result<Option<MediatorMessage>, FrameError> {
        match self.next_frame()? {
            None => Ok(None),
            Some(frame) => decode_mediator_message(frame).map(|(message, _)| Some(message)),
        }
    }

    /// Pops the next complete participant reply, or `Ok(None)` when more
    /// bytes are needed.
    pub fn next_participant_reply(&mut self) -> Result<Option<ParticipantReply>, FrameError> {
        match self.next_frame()? {
            None => Ok(None),
            Some(frame) => decode_participant_reply(frame).map(|(reply, _)| Some(reply)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::QueryClass;

    fn wave_query(id: u32) -> Query {
        let mut query = Query::single(
            QueryId::new(id),
            ConsumerId::new(1),
            QueryClass::Heavy,
            SimTime::from_secs(12.625),
        );
        query.n = 2;
        query
    }

    fn rich_query() -> Query {
        Query {
            id: QueryId::new(77),
            consumer: ConsumerId::new(3),
            description: QueryDescription::with_topic("shipping/international", QueryClass::Light)
                .attribute("origin:FR")
                .attribute("destination:US")
                .with_cost(WorkUnits::new(137.5)),
            n: 3,
            issued_at: SimTime::from_secs(0.1),
        }
    }

    fn all_messages() -> Vec<MediatorMessage> {
        vec![
            MediatorMessage::ConsumerIntentionRequest {
                query: QueryId::new(3),
                candidates: vec![ProviderId::new(0), ProviderId::new(7)],
            },
            MediatorMessage::ProviderIntentionRequest {
                query: QueryId::new(1),
                request_bid: true,
            },
            MediatorMessage::ConsumerWaveRequest {
                wave: 42,
                consumer: ConsumerId::new(1),
                requests: vec![
                    (wave_query(1), vec![ProviderId::new(2)]),
                    (rich_query(), vec![ProviderId::new(3), ProviderId::new(4)]),
                ],
            },
            MediatorMessage::ProviderWaveRequest {
                wave: 42,
                provider: ProviderId::new(9),
                queries: vec![wave_query(1), rich_query()],
                request_bids: false,
            },
            MediatorMessage::AllocationNotice {
                query: QueryId::new(9),
                provider: ProviderId::new(4),
                selected: false,
            },
            MediatorMessage::AllocationResult {
                query: QueryId::new(9),
                consumer: ConsumerId::new(2),
                providers: vec![ProviderId::new(5)],
            },
            MediatorMessage::Shutdown,
            MediatorMessage::WaveEnd { wave: 42 },
            MediatorMessage::StatsReply {
                snapshot: ObsSnapshot::default(),
            },
            MediatorMessage::StatsReply {
                snapshot: ObsSnapshot {
                    counters: vec![("replies_credited".into(), 192), ("waves_begun".into(), 3)],
                    gauges: vec![("pipeline_depth".into(), -2)],
                    histograms: vec![(
                        "wave_gather_seconds".into(),
                        HistogramSummary {
                            count: 3,
                            p50: 0.001,
                            p95: 0.0025,
                            p99: 0.0025,
                            max: 0.00273,
                        },
                    )],
                },
            },
        ]
    }

    fn all_replies() -> Vec<ParticipantReply> {
        vec![
            ParticipantReply::ConsumerIntentions {
                query: QueryId::new(3),
                consumer: ConsumerId::new(1),
                intentions: vec![(ProviderId::new(0), 0.5), (ProviderId::new(7), -0.25)],
            },
            ParticipantReply::ProviderIntention {
                query: QueryId::new(9),
                provider: ProviderId::new(2),
                intention: -0.25,
                bid: Some(Bid::new(10.0, 1.0)),
            },
            ParticipantReply::ConsumerWaveReply {
                wave: 42,
                consumer: ConsumerId::new(1),
                intentions: vec![
                    (QueryId::new(1), vec![(ProviderId::new(2), 0.75)]),
                    (QueryId::new(2), vec![]),
                ],
            },
            ParticipantReply::ProviderWaveReply {
                wave: 42,
                provider: ProviderId::new(2),
                utilization: 0.625,
                intentions: vec![
                    (QueryId::new(1), 0.5, None),
                    (QueryId::new(2), -1.0, Some(Bid::new(7.5, 2.0))),
                ],
            },
            ParticipantReply::Hello {
                consumers: vec![ConsumerId::new(0), ConsumerId::new(2)],
                providers: vec![ProviderId::new(1)],
            },
            ParticipantReply::Goodbye,
            ParticipantReply::StatsRequest,
        ]
    }

    #[test]
    fn every_message_round_trips_through_its_frame() {
        for message in all_messages() {
            let frame = encode_mediator_message(&message);
            let (decoded, consumed) = decode_mediator_message(&frame).unwrap();
            assert_eq!(decoded, message);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn every_reply_round_trips_through_its_frame() {
        for reply in all_replies() {
            let frame = encode_participant_reply(&reply);
            let (decoded, consumed) = decode_participant_reply(&frame).unwrap();
            assert_eq!(decoded, reply);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn queries_round_trip_bit_identically() {
        // The socket backend's determinism contract: the decoded query
        // must be *bit*-identical to the encoded one, f64s included.
        let message = MediatorMessage::ProviderWaveRequest {
            wave: 1,
            provider: ProviderId::new(0),
            queries: vec![rich_query()],
            request_bids: true,
        };
        let frame = encode_mediator_message(&message);
        let (decoded, _) = decode_mediator_message(&frame).unwrap();
        let MediatorMessage::ProviderWaveRequest { queries, .. } = decoded else {
            panic!("wrong variant");
        };
        let original = rich_query();
        assert_eq!(queries[0], original);
        assert_eq!(
            queries[0].issued_at.as_secs().to_bits(),
            original.issued_at.as_secs().to_bits()
        );
        assert_eq!(
            queries[0].cost().value().to_bits(),
            original.cost().value().to_bits()
        );
    }

    #[test]
    fn frames_decode_back_to_back_from_one_stream() {
        let mut stream = Vec::new();
        for message in all_messages() {
            stream.extend_from_slice(&encode_mediator_message(&message));
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < stream.len() {
            let (message, consumed) = decode_mediator_message(&stream[at..]).unwrap();
            decoded.push(message);
            at += consumed;
        }
        assert_eq!(decoded, all_messages());
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked_on() {
        for message in all_messages() {
            let frame = encode_mediator_message(&message);
            for cut in 0..frame.len() {
                let err = decode_mediator_message(&frame[..cut]).unwrap_err();
                assert!(
                    matches!(err, FrameError::Truncated | FrameError::TrailingBytes),
                    "cut at {cut}: {err:?}"
                );
            }
        }
        for reply in all_replies() {
            let frame = encode_participant_reply(&reply);
            for cut in 0..frame.len() {
                assert!(decode_participant_reply(&frame[..cut]).is_err());
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let frame = vec![1, 0, 0, 0, 200];
        assert_eq!(
            decode_mediator_message(&frame).unwrap_err(),
            FrameError::UnknownTag(200)
        );
        assert_eq!(
            decode_participant_reply(&frame).unwrap_err(),
            FrameError::UnknownTag(200)
        );
    }

    #[test]
    fn corrupted_counts_cannot_drive_huge_allocations() {
        // A ConsumerIntentionRequest whose candidate count claims u32::MAX
        // with no bytes behind it must fail cleanly.
        let mut bytes = Vec::new();
        let mut frame = FrameWriter::over(&mut bytes, 1);
        frame.u32(1);
        frame.u32(u32::MAX);
        frame.finish();
        assert_eq!(
            decode_mediator_message(&bytes).unwrap_err(),
            FrameError::TrailingBytes
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation() {
        // A hostile peer declaring a ~4 GiB payload must be refused from
        // the four prefix bytes alone — by the slice decoder and by the
        // stream assembler — without any buffer being sized to it.
        let hostile = u32::MAX.to_le_bytes();
        assert_eq!(
            decode_mediator_message(&hostile).unwrap_err(),
            FrameError::Oversized(u32::MAX)
        );
        assert_eq!(
            decode_participant_reply(&hostile).unwrap_err(),
            FrameError::Oversized(u32::MAX)
        );

        let mut assembler = FrameAssembler::new();
        assembler.extend(&hostile);
        assert_eq!(
            assembler.next_mediator_message().unwrap_err(),
            FrameError::Oversized(u32::MAX)
        );
        assert_eq!(
            assembler.pending_bytes(),
            4,
            "the assembler must not have buffered anything for the declared length"
        );

        // One byte past the cap also trips; the cap itself would not.
        let declared = (MAX_FRAME_PAYLOAD as u32) + 1;
        let mut assembler = FrameAssembler::new();
        assembler.extend(&declared.to_le_bytes());
        assert_eq!(
            assembler.next_participant_reply().unwrap_err(),
            FrameError::Oversized(declared)
        );
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_boundary() {
        // The exact failure mode a stream transport introduces: reads
        // that split a frame anywhere, including inside the length
        // prefix. Feed the whole message stream in two chunks cut at
        // every possible position and require the identical sequence out.
        let mut stream = Vec::new();
        for message in all_messages() {
            stream.extend_from_slice(&encode_mediator_message(&message));
        }
        for cut in 0..=stream.len() {
            let mut assembler = FrameAssembler::new();
            let mut decoded = Vec::new();
            for chunk in [&stream[..cut], &stream[cut..]] {
                assembler.extend(chunk);
                while let Some(message) = assembler.next_mediator_message().unwrap() {
                    decoded.push(message);
                }
            }
            assert_eq!(decoded, all_messages(), "cut at {cut}");
            assert_eq!(assembler.pending_bytes(), 0);
        }
    }

    #[test]
    fn borrowed_frames_survive_fill_from_at_every_split_position() {
        // The zero-copy receive path end to end: bytes arrive through
        // `fill_from` (two reads cut at every possible position), frames
        // come out of `next_frame` as borrowed slices — length prefix
        // included — and in-place decoding must recover the identical
        // message sequence at every cut.
        let mut stream = Vec::new();
        for message in all_messages() {
            stream.extend_from_slice(&encode_mediator_message(&message));
        }
        for cut in 0..=stream.len() {
            let mut assembler = FrameAssembler::new();
            let mut decoded = Vec::new();
            for mut chunk in [&stream[..cut], &stream[cut..]] {
                while !chunk.is_empty() {
                    assert!(assembler.fill_from(&mut chunk).unwrap() > 0);
                    while let Some(frame) = assembler.next_frame().unwrap() {
                        let declared = u32::from_le_bytes(frame[..4].try_into().unwrap());
                        assert_eq!(frame.len(), 4 + declared as usize, "cut at {cut}");
                        let (message, consumed) = decode_mediator_message(frame).unwrap();
                        assert_eq!(consumed, frame.len(), "cut at {cut}");
                        decoded.push(message);
                    }
                }
            }
            assert_eq!(decoded, all_messages(), "cut at {cut}");
            assert_eq!(assembler.pending_bytes(), 0);
        }
    }

    #[test]
    fn borrowed_frames_survive_fill_from_one_byte_reads() {
        // A pathological reader that yields one byte per `read` call
        // exercises `fill_from`'s resize/compact bookkeeping on every
        // frame boundary of the reply stream.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&byte, rest)) => {
                        buf[0] = byte;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let mut stream = Vec::new();
        for reply in all_replies() {
            stream.extend_from_slice(&encode_participant_reply(&reply));
        }
        let mut reader = OneByte(&stream);
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        while assembler.fill_from(&mut reader).unwrap() > 0 {
            while let Some(frame) = assembler.next_frame().unwrap() {
                decoded.push(decode_participant_reply(frame).unwrap().0);
            }
        }
        assert_eq!(decoded, all_replies());
        assert_eq!(assembler.pending_bytes(), 0);
    }

    #[test]
    fn assembler_survives_byte_at_a_time_delivery() {
        let mut stream = Vec::new();
        for reply in all_replies() {
            stream.extend_from_slice(&encode_participant_reply(&reply));
        }
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        for &byte in &stream {
            assembler.extend(&[byte]);
            while let Some(reply) = assembler.next_participant_reply().unwrap() {
                decoded.push(reply);
            }
        }
        assert_eq!(decoded, all_replies());
    }

    #[test]
    fn assembler_pops_concatenated_frames_from_one_chunk() {
        let mut stream = Vec::new();
        for message in all_messages() {
            stream.extend_from_slice(&encode_mediator_message(&message));
        }
        let mut assembler = FrameAssembler::new();
        assembler.extend(&stream);
        let mut decoded = Vec::new();
        while let Some(message) = assembler.next_mediator_message().unwrap() {
            decoded.push(message);
        }
        assert_eq!(decoded, all_messages());
    }

    #[test]
    fn assembler_waits_on_truncated_length_prefixes() {
        let frame = encode_mediator_message(&MediatorMessage::WaveEnd { wave: 7 });
        let mut assembler = FrameAssembler::new();
        for cut in 1..4 {
            assembler.extend(&frame[..cut]);
            assert!(
                assembler.next_mediator_message().unwrap().is_none(),
                "a {cut}-byte prefix is not an error, just incomplete"
            );
            assembler = FrameAssembler::new();
        }
        // Completing the prefix and payload later succeeds.
        assembler.extend(&frame[..2]);
        assert!(assembler.next_mediator_message().unwrap().is_none());
        assembler.extend(&frame[2..]);
        assert_eq!(
            assembler.next_mediator_message().unwrap().unwrap(),
            MediatorMessage::WaveEnd { wave: 7 }
        );
    }

    #[test]
    fn assembler_compacts_consumed_bytes() {
        // Long-lived connections must not accumulate the stream history.
        let frame = encode_participant_reply(&ParticipantReply::Goodbye);
        let mut assembler = FrameAssembler::new();
        for _ in 0..10_000 {
            assembler.extend(&frame);
            assembler.next_participant_reply().unwrap().unwrap();
        }
        assert_eq!(assembler.pending_bytes(), 0);
        assert!(
            assembler.buf.len() < 8192,
            "buffer should stay near the unconsumed tail, got {}",
            assembler.buf.len()
        );
    }

    #[test]
    fn invalid_utf8_in_strings_is_rejected() {
        let mut message = encode_mediator_message(&MediatorMessage::ProviderWaveRequest {
            wave: 1,
            provider: ProviderId::new(0),
            queries: vec![Query {
                description: QueryDescription::with_topic("ab", QueryClass::Light),
                ..wave_query(1)
            }],
            request_bids: false,
        });
        // The topic's two bytes sit right after the fixed prefix:
        // frame(4) + tag(1) + wave(8) + provider(4) + count(4) + id(4) +
        // consumer(4) + topic length(4) = offset 33.
        message[33] = 0xFF;
        message[34] = 0xFE;
        assert_eq!(
            decode_mediator_message(&message).unwrap_err(),
            FrameError::InvalidUtf8
        );
    }

    #[test]
    fn replies_expose_their_query_or_wave() {
        let single = ParticipantReply::ConsumerIntentions {
            query: QueryId::new(3),
            consumer: ConsumerId::new(1),
            intentions: vec![(ProviderId::new(0), 0.5)],
        };
        assert_eq!(single.query(), Some(QueryId::new(3)));
        assert_eq!(single.wave(), None);
        let wave = ParticipantReply::ProviderWaveReply {
            wave: 9,
            provider: ProviderId::new(2),
            utilization: 0.0,
            intentions: vec![],
        };
        assert_eq!(wave.query(), None);
        assert_eq!(wave.wave(), Some(9));
        assert_eq!(ParticipantReply::Goodbye.query(), None);
        assert_eq!(ParticipantReply::Goodbye.wave(), None);
    }

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m = MediatorMessage::ProviderIntentionRequest {
            query: QueryId::new(1),
            request_bid: true,
        };
        assert_eq!(m.clone(), m);
        let n = MediatorMessage::AllocationNotice {
            query: QueryId::new(1),
            provider: ProviderId::new(0),
            selected: false,
        };
        assert_ne!(m, n);
    }
}

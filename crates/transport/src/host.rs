//! The participant-host client: many endpoints, one socket.
//!
//! [`ParticipantHost`] is the client-side library a deployment links
//! into each participant process. It multiplexes any number of consumer
//! and provider endpoints (the same [`ConsumerEndpoint`] /
//! [`ProviderEndpoint`] traits the in-process reactor uses) over a
//! single TCP or Unix-domain connection to a [`crate::WaveServer`]:
//! one socket per host, not per endpoint, which is what lets a handful
//! of connections carry tens of thousands of endpoints.
//!
//! The host announces its endpoints with a `Hello`, then serves waves:
//! it buffers each wave's requests until the `WaveEnd` marker, computes
//! every reply, and writes them in one burst. (Buffering until the
//! marker is also a flow-control contract: the host keeps reading while
//! the server keeps writing, so neither side can block the other into a
//! deadlock on full socket buffers.) Endpoint latency hooks are
//! honoured in wall-clock time: `After` sleeps before the reply, `Never`
//! sends none — the server reads the silence as indifference when the
//! wave deadline passes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::ToSocketAddrs;

#[cfg(unix)]
use std::path::Path;

use sqlb_mediation::{
    encode_participant_reply, encode_participant_reply_into, FrameAssembler, Latency,
    MediatorMessage, ParticipantReply,
};
use sqlb_mediation::{ConsumerEndpoint, ProviderEndpoint};
use sqlb_obs::{Counter, Obs};
use sqlb_types::{ConsumerId, ProviderId, Query};

use crate::net::Stream;

/// Pre-resolved observability instruments of a [`ParticipantHost`] —
/// the live-readable mirror of [`HostReport`], plus byte accounting.
/// All no-ops until [`ParticipantHost::set_obs`] installs an enabled
/// [`Obs`].
#[derive(Debug, Default)]
struct HostMetrics {
    /// Waves answered (mirrors [`HostReport::waves_served`]).
    waves_served: Counter,
    /// Endpoint replies written (mirrors [`HostReport::replies_sent`]).
    replies_sent: Counter,
    /// Notices/results delivered (mirrors
    /// [`HostReport::notices_received`]).
    notices_received: Counter,
    /// Bytes read from the server connection.
    bytes_in: Counter,
    /// Bytes written to the server connection.
    bytes_out: Counter,
}

impl HostMetrics {
    /// Resolves every instrument from `obs` (no-ops when disabled).
    fn resolve(obs: &Obs) -> Self {
        HostMetrics {
            waves_served: obs.counter("host_waves_served"),
            replies_sent: obs.counter("host_replies_sent"),
            notices_received: obs.counter("host_notices_received"),
            bytes_in: obs.counter("host_bytes_in"),
            bytes_out: obs.counter("host_bytes_out"),
        }
    }
}

/// A buffered consumer wave request: `(wave, addressee, decoded
/// requests)`, held until the wave-end marker arrives.
type BufferedConsumerRequest = (u64, ConsumerId, Vec<(Query, Vec<ProviderId>)>);
/// A buffered provider wave request: `(wave, addressee, decoded
/// queries, request_bids)`.
type BufferedProviderRequest = (u64, ProviderId, Vec<Query>, bool);

/// Buffers decoded wave requests until their wave-end marker arrives.
///
/// Both the real [`ParticipantHost`] and the `sqlb-check` model host
/// run this exact structure, so the checker exercises the same
/// buffering discipline the deployment ships. The wave discipline
/// lives in [`WaveRequestBuffer::take_wave`]: requests of *older*
/// waves are dropped (stale leftovers of a wave the server already
/// timed out), while requests of *newer* waves stay buffered — under
/// depth-2 pipelining the server legitimately writes wave `t+1`
/// requests before the host has seen wave `t`'s end marker, and
/// dropping them would silently degrade the next wave to
/// indifference.
#[derive(Debug, Clone, Default)]
pub struct WaveRequestBuffer {
    consumers: Vec<BufferedConsumerRequest>,
    providers: Vec<BufferedProviderRequest>,
}

/// The requests of one wave, removed from a [`WaveRequestBuffer`] in
/// arrival order by [`WaveRequestBuffer::take_wave`].
#[derive(Debug, Clone, Default)]
pub struct TakenWave {
    /// Consumer requests of the taken wave: `(addressee, batch)`.
    #[allow(clippy::type_complexity)]
    pub consumers: Vec<(ConsumerId, Vec<(Query, Vec<ProviderId>)>)>,
    /// Provider requests of the taken wave: `(addressee, queries,
    /// request_bids)`.
    pub providers: Vec<(ProviderId, Vec<Query>, bool)>,
}

impl WaveRequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers one decoded consumer wave request.
    pub fn push_consumer(
        &mut self,
        wave: u64,
        consumer: ConsumerId,
        requests: Vec<(Query, Vec<ProviderId>)>,
    ) {
        self.consumers.push((wave, consumer, requests));
    }

    /// Buffers one decoded provider wave request.
    pub fn push_provider(
        &mut self,
        wave: u64,
        provider: ProviderId,
        queries: Vec<Query>,
        request_bids: bool,
    ) {
        self.providers.push((wave, provider, queries, request_bids));
    }

    /// Number of buffered requests across all waves.
    pub fn len(&self) -> usize {
        self.consumers.len() + self.providers.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty() && self.providers.is_empty()
    }

    /// Removes and returns `wave`'s requests in arrival order. Older
    /// waves' leftovers are discarded; newer waves' requests (written
    /// early by a pipelining server) remain buffered for their own
    /// end marker.
    pub fn take_wave(&mut self, wave: u64) -> TakenWave {
        let mut taken = TakenWave::default();
        let mut kept = Vec::new();
        for (w, consumer, requests) in std::mem::take(&mut self.consumers) {
            match w.cmp(&wave) {
                std::cmp::Ordering::Equal => taken.consumers.push((consumer, requests)),
                std::cmp::Ordering::Greater => kept.push((w, consumer, requests)),
                std::cmp::Ordering::Less => {}
            }
        }
        self.consumers = kept;
        let mut kept = Vec::new();
        for (w, provider, queries, bids) in std::mem::take(&mut self.providers) {
            match w.cmp(&wave) {
                std::cmp::Ordering::Equal => taken.providers.push((provider, queries, bids)),
                std::cmp::Ordering::Greater => kept.push((w, provider, queries, bids)),
                std::cmp::Ordering::Less => {}
            }
        }
        self.providers = kept;
        taken
    }
}

/// Summary of one host's service, returned when the connection ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostReport {
    /// Waves this host answered.
    pub waves_served: u64,
    /// Individual endpoint replies written.
    pub replies_sent: u64,
    /// Allocation notices/results delivered to endpoints.
    pub notices_received: u64,
    /// Whether the connection ended with a mediator `Shutdown` (`true`)
    /// or an EOF (`false`).
    pub clean_shutdown: bool,
}

/// A participant host: endpoints multiplexed over one connection.
pub struct ParticipantHost {
    stream: Stream,
    assembler: FrameAssembler,
    consumers: BTreeMap<ConsumerId, Box<dyn ConsumerEndpoint>>,
    providers: BTreeMap<ProviderId, Box<dyn ProviderEndpoint>>,
    report: HostReport,
    /// Reply-encode scratch, reused across waves: a steady-state wave's
    /// reply burst is framed with no buffer allocation at all.
    scratch: Vec<u8>,
    /// Pre-resolved instruments (no-ops until
    /// [`ParticipantHost::set_obs`]).
    metrics: HostMetrics,
}

impl ParticipantHost {
    /// Connects to a wave server over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self::over(Stream::connect_tcp(addr)?))
    }

    /// Connects to a wave server over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::over(Stream::connect_uds(path)?))
    }

    /// Wraps an already-connected stream.
    pub fn over(stream: Stream) -> Self {
        ParticipantHost {
            stream,
            assembler: FrameAssembler::new(),
            consumers: BTreeMap::new(),
            providers: BTreeMap::new(),
            report: HostReport::default(),
            scratch: Vec::new(),
            metrics: HostMetrics::default(),
        }
    }

    /// Installs an observability sink: the host's service counters
    /// ([`HostReport`] mirrors, byte totals) become live-readable
    /// through the sink's registry. With the default disabled sink the
    /// host records nothing.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = HostMetrics::resolve(obs);
    }

    /// Registers a consumer endpoint on this host (before
    /// [`ParticipantHost::announce`]).
    pub fn add_consumer(&mut self, id: ConsumerId, endpoint: impl ConsumerEndpoint) {
        self.consumers.insert(id, Box::new(endpoint));
    }

    /// Registers a provider endpoint on this host.
    pub fn add_provider(&mut self, id: ProviderId, endpoint: impl ProviderEndpoint) {
        self.providers.insert(id, Box::new(endpoint));
    }

    /// Number of endpoints this host multiplexes.
    pub fn endpoint_count(&self) -> usize {
        self.consumers.len() + self.providers.len()
    }

    /// Sends the `Hello` declaring this host's endpoints; the server
    /// routes their wave requests over this connection from then on.
    pub fn announce(&mut self) -> io::Result<()> {
        let hello = ParticipantReply::Hello {
            consumers: self.consumers.keys().copied().collect(),
            providers: self.providers.keys().copied().collect(),
        };
        self.stream.write_all(&encode_participant_reply(&hello))?;
        self.stream.flush()
    }

    /// Serves waves until the mediator sends `Shutdown` (answered with a
    /// `Goodbye`) or the connection closes. Returns the service summary.
    pub fn serve(&mut self) -> io::Result<HostReport> {
        // Requests of the waves being assembled, in arrival order.
        let mut buffer = WaveRequestBuffer::new();
        loop {
            while let Some(message) = self
                .assembler
                .next_mediator_message()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                match message {
                    MediatorMessage::ConsumerWaveRequest {
                        wave,
                        consumer,
                        requests,
                    } => buffer.push_consumer(wave, consumer, requests),
                    MediatorMessage::ProviderWaveRequest {
                        wave,
                        provider,
                        queries,
                        request_bids,
                    } => buffer.push_provider(wave, provider, queries, request_bids),
                    MediatorMessage::WaveEnd { wave } => {
                        let taken = buffer.take_wave(wave);
                        self.answer_wave(wave, taken)?;
                    }
                    MediatorMessage::AllocationNotice {
                        query,
                        provider,
                        selected,
                    } => {
                        if let Some(endpoint) = self.providers.get_mut(&provider) {
                            endpoint.allocation_notice(query, selected);
                        }
                        self.report.notices_received += 1;
                        self.metrics.notices_received.inc();
                    }
                    MediatorMessage::AllocationResult {
                        query,
                        consumer,
                        providers,
                    } => {
                        if let Some(endpoint) = self.consumers.get_mut(&consumer) {
                            endpoint.allocation_result(query, &providers);
                        }
                        self.report.notices_received += 1;
                        self.metrics.notices_received.inc();
                    }
                    MediatorMessage::Shutdown => {
                        let goodbye = encode_participant_reply(&ParticipantReply::Goodbye);
                        let _ = self.stream.write_all(&goodbye);
                        let _ = self.stream.flush();
                        self.report.clean_shutdown = true;
                        return Ok(self.report);
                    }
                    // The legacy single-query request shapes carry no
                    // addressee and cannot be dispatched on a multiplexed
                    // connection; hosts ignore them. A stats reply only
                    // answers a request this host sent (see
                    // [`ParticipantHost::request_stats`]) — one arriving
                    // unsolicited mid-serve is dropped the same way.
                    MediatorMessage::ConsumerIntentionRequest { .. }
                    | MediatorMessage::ProviderIntentionRequest { .. }
                    | MediatorMessage::StatsReply { .. } => {}
                }
            }
            match self.assembler.fill_from(&mut self.stream) {
                Ok(0) => return Ok(self.report),
                Ok(n) => self.metrics.bytes_in.add(n as u64),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a [`ParticipantReply::StatsRequest`] and blocks until the
    /// server's [`MediatorMessage::StatsReply`] arrives, returning the
    /// snapshot it carried.
    ///
    /// Intended for a *dedicated* introspection connection (a host with
    /// no endpoints, announced or not): any wave requests or notices
    /// that arrive while waiting are discarded, so calling this on a
    /// connection that also serves endpoints would lose traffic. The
    /// server answers stats requests whenever it reads the connection —
    /// during wave collection, between pipelined waves, or from an
    /// explicit [`crate::WaveServer::service_stats`] pump.
    pub fn request_stats(&mut self) -> io::Result<sqlb_obs::ObsSnapshot> {
        self.stream
            .write_all(&encode_participant_reply(&ParticipantReply::StatsRequest))?;
        self.stream.flush()?;
        loop {
            while let Some(message) = self
                .assembler
                .next_mediator_message()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                if let MediatorMessage::StatsReply { snapshot } = message {
                    return Ok(snapshot);
                }
            }
            match self.assembler.fill_from(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the stats reply arrived",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Computes and writes every reply of `wave`, in request arrival
    /// order, honouring the endpoints' latency hooks.
    fn answer_wave(&mut self, wave: u64, taken: TakenWave) -> io::Result<()> {
        self.scratch.clear();
        for (consumer, requests) in taken.consumers {
            let Some(endpoint) = self.consumers.get_mut(&consumer) else {
                // Addressed to an endpoint this host no longer serves:
                // an explicit empty reply keeps the server from waiting
                // out the deadline for it.
                encode_participant_reply_into(
                    &ParticipantReply::ConsumerWaveReply {
                        wave,
                        consumer,
                        intentions: Vec::new(),
                    },
                    &mut self.scratch,
                );
                self.report.replies_sent += 1;
                self.metrics.replies_sent.inc();
                continue;
            };
            match endpoint.latency() {
                Latency::Never => continue,
                Latency::After(delay) => {
                    // Replies computed so far must not be held hostage by
                    // this endpoint's latency: flush, then sleep.
                    flush_pending(&mut self.stream, &mut self.scratch, &self.metrics.bytes_out)?;
                    std::thread::sleep(delay);
                }
                Latency::Immediate => {}
            }
            let intentions = endpoint.intentions_batch(&requests);
            encode_participant_reply_into(
                &ParticipantReply::ConsumerWaveReply {
                    wave,
                    consumer,
                    intentions,
                },
                &mut self.scratch,
            );
            self.report.replies_sent += 1;
            self.metrics.replies_sent.inc();
        }
        for (provider, queries, request_bids) in taken.providers {
            let Some(endpoint) = self.providers.get_mut(&provider) else {
                encode_participant_reply_into(
                    &ParticipantReply::ProviderWaveReply {
                        wave,
                        provider,
                        utilization: 0.0,
                        intentions: Vec::new(),
                    },
                    &mut self.scratch,
                );
                self.report.replies_sent += 1;
                self.metrics.replies_sent.inc();
                continue;
            };
            match endpoint.latency() {
                Latency::Never => continue,
                Latency::After(delay) => {
                    flush_pending(&mut self.stream, &mut self.scratch, &self.metrics.bytes_out)?;
                    std::thread::sleep(delay);
                }
                Latency::Immediate => {}
            }
            let utilization = endpoint.utilization();
            let intentions = endpoint.intention_batch(&queries, request_bids);
            encode_participant_reply_into(
                &ParticipantReply::ProviderWaveReply {
                    wave,
                    provider,
                    utilization,
                    intentions,
                },
                &mut self.scratch,
            );
            self.report.replies_sent += 1;
            self.metrics.replies_sent.inc();
        }
        self.report.waves_served += 1;
        self.metrics.waves_served.inc();
        flush_pending(&mut self.stream, &mut self.scratch, &self.metrics.bytes_out)
    }
}

/// Writes and clears the pending reply bytes, if any.
fn flush_pending(stream: &mut Stream, out: &mut Vec<u8>, bytes_out: &Counter) -> io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    stream.write_all(out)?;
    stream.flush()?;
    bytes_out.add(out.len() as u64);
    out.clear();
    Ok(())
}

impl std::fmt::Debug for ParticipantHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticipantHost")
            .field("peer", &self.stream.peer_label())
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("waves_served", &self.report.waves_served)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{QueryClass, QueryId, SimTime};

    fn query(id: u32, consumer: u32) -> Query {
        Query::single(
            QueryId::new(id),
            ConsumerId::new(consumer),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    #[test]
    fn take_wave_keeps_newer_waves_buffered() {
        // Under depth-2 pipelining the server writes wave t+1 requests
        // before the host has answered wave t. Taking wave t must leave
        // wave t+1's requests buffered for their own end marker — an
        // earlier revision dropped them, silently degrading the next
        // wave to indifference.
        let mut buffer = WaveRequestBuffer::new();
        buffer.push_consumer(1, ConsumerId::new(0), vec![(query(10, 0), vec![])]);
        buffer.push_provider(2, ProviderId::new(1), vec![query(11, 0)], false);
        let taken = buffer.take_wave(1);
        assert_eq!(taken.consumers.len(), 1);
        assert!(taken.providers.is_empty());
        assert_eq!(buffer.len(), 1, "wave-2 request must stay buffered");
        let taken = buffer.take_wave(2);
        assert_eq!(taken.providers.len(), 1);
        assert!(buffer.is_empty());
    }

    #[test]
    fn take_wave_discards_stale_older_waves() {
        // Leftovers of a wave the server already timed out must not
        // leak into a later wave's answer burst.
        let mut buffer = WaveRequestBuffer::new();
        buffer.push_provider(1, ProviderId::new(1), vec![query(11, 0)], false);
        buffer.push_provider(3, ProviderId::new(1), vec![query(12, 0)], true);
        let taken = buffer.take_wave(3);
        assert_eq!(taken.providers.len(), 1);
        assert_eq!(taken.providers[0].1[0].id, QueryId::new(12));
        assert!(buffer.is_empty(), "stale wave-1 leftover must be gone");
    }

    #[test]
    fn take_wave_preserves_arrival_order_within_a_wave() {
        let mut buffer = WaveRequestBuffer::new();
        buffer.push_provider(1, ProviderId::new(2), vec![query(1, 0)], false);
        buffer.push_provider(1, ProviderId::new(1), vec![query(2, 0)], false);
        let taken = buffer.take_wave(1);
        assert_eq!(taken.providers[0].0, ProviderId::new(2));
        assert_eq!(taken.providers[1].0, ProviderId::new(1));
    }
}

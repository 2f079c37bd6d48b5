//! The client/auditor library — the paper's user-side guarantee (§3.3):
//! "For each of the n trust domains, the client can obtain a digest of the
//! code that is currently running and a history of digests corresponding
//! to code that ran previously. The client can check that the digests
//! match across all n trust domains."

use crate::framework::framework_measurement;
use crate::protocol::{
    AttestationBinding, BundleAttestation, DomainStatus, Request, Response, ShardAuditBundle,
    UpdateNotice,
};
use distrust_crypto::schnorr::VerifyingKey;
use distrust_crypto::sha256::Digest;
use distrust_gossip::envelope::{GossipEnvelope, GossipHead};
use distrust_gossip::evidence::{EvidenceBundle, EvidencePool};
use distrust_log::auditor::{AuditOutcome, Auditor, Misbehavior};
use distrust_tee::vendor::{VendorKind, VendorRoots};
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::pipeline::PipelinedClient;
use distrust_wire::transport::TcpTransport;
use rand::RngCore;
use std::net::SocketAddr;

/// A connection carrying more abandoned-but-undrained responses than this
/// is reset instead of reused: the straggling server behind it owes so
/// many answers that a fresh connection is cheaper than draining them.
const MAX_ABANDONED_PER_CONN: u64 = 32;

/// What a client needs to know about one trust domain.
#[derive(Clone, Debug)]
pub struct DomainInfo {
    /// Domain index (0 = the developer's unattested domain).
    pub index: u32,
    /// Where to connect.
    pub addr: SocketAddr,
    /// Expected secure-hardware vendor; `None` for trust domain 0.
    pub vendor: Option<VendorKind>,
    /// Pinned checkpoint-signing key.
    pub checkpoint_key: VerifyingKey,
}

/// Everything a client needs to audit and use a deployment. Distributed
/// out of band (the paper's open-source publication channel).
#[derive(Clone, Debug)]
pub struct DeploymentDescriptor {
    /// Application name.
    pub app_name: String,
    /// Developer's release-signing public key.
    pub developer_key: VerifyingKey,
    /// Pinned vendor attestation roots.
    pub vendor_roots: VendorRoots,
    /// The trust domains, index-ordered (0 first).
    pub domains: Vec<DomainInfo>,
}

impl DeploymentDescriptor {
    /// The framework measurement every TEE-backed domain must attest.
    pub fn expected_measurement(&self) -> Digest {
        framework_measurement(&self.developer_key, &self.app_name)
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (typically: the domain could not be reached at
    /// all — connect refused, no route).
    Io(std::io::Error),
    /// An *established* pipelined connection to the domain was lost
    /// (disconnect, framing violation). Distinct from [`Self::App`]: the
    /// domain did not answer this request, and any other requests that
    /// were in flight on the same connection are gone with it. The client
    /// reconnects on the next use.
    ConnectionLost(distrust_wire::TransportError),
    /// Could not decode the response.
    Decode(distrust_wire::DecodeError),
    /// The domain answered, but not with the expected variant.
    Unexpected(String),
    /// The domain reported an application error.
    App(String),
    /// The domain rejected an update.
    UpdateRejected(String),
    /// Unknown domain index.
    NoSuchDomain(u32),
    /// The session's trust policy refuses this domain (it failed the most
    /// recent audit, or never passed one).
    Untrusted {
        /// The refused domain.
        domain: u32,
        /// Why the trust policy refuses it.
        reason: String,
    },
    /// The trust-gating audit failed outright: no usable domain survived
    /// it, or misbehavior evidence was collected. App calls are refused
    /// until an audit passes.
    AuditFailed(String),
    /// A fan-out finished without satisfying its quorum policy.
    QuorumNotMet {
        /// Domains that satisfied the policy's success criterion.
        satisfied: usize,
        /// Domains the policy required.
        required: usize,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::ConnectionLost(e) => write!(f, "connection lost: {e}"),
            Self::Decode(e) => write!(f, "decode error: {e}"),
            Self::Unexpected(what) => write!(f, "unexpected response: {what}"),
            Self::App(e) => write!(f, "application error: {e}"),
            Self::UpdateRejected(e) => write!(f, "update rejected: {e}"),
            Self::NoSuchDomain(i) => write!(f, "no such domain {i}"),
            Self::Untrusted { domain, reason } => {
                write!(f, "domain {domain} refused by trust policy: {reason}")
            }
            Self::AuditFailed(why) => write!(f, "trust-gating audit failed: {why}"),
            Self::QuorumNotMet {
                satisfied,
                required,
            } => write!(
                f,
                "quorum not met: {satisfied} of {required} required domains answered"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<distrust_wire::TransportError> for ClientError {
    fn from(e: distrust_wire::TransportError) -> Self {
        Self::ConnectionLost(e)
    }
}

/// Why one domain failed its audit.
#[derive(Debug)]
pub enum AuditFailure {
    /// The `BatchAudit` exchange failed: no answer even on a fresh
    /// connection, or an answer that is not an audit bundle (an error
    /// frame, say). Not misbehaviour evidence by itself.
    Request(ClientError),
    /// The attestation did not verify (vendor pin, quote, measurement,
    /// nonce binding), or a domain answered in the wrong form for its
    /// vendor pin.
    Attestation(String),
    /// The log bundle verified, but its freshest checkpoint is not the
    /// attested `(log_size, log_head)`.
    StatusMismatch,
    /// The log bundle is misbehaviour evidence (also listed in
    /// [`AuditReport::misbehavior`]).
    Misbehavior(Box<Misbehavior>),
    /// The client holds transferable equivocation evidence against the
    /// domain, from this round or an earlier one.
    Convicted,
}

impl core::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Request(e) => write!(f, "audit request failed: {e}"),
            Self::Attestation(why) => write!(f, "attestation failed: {why}"),
            Self::StatusMismatch => write!(f, "checkpoint disagrees with attested status"),
            Self::Misbehavior(m) => write!(f, "log misbehavior: {m:?}"),
            Self::Convicted => write!(
                f,
                "transferable equivocation evidence held against this domain"
            ),
        }
    }
}

/// Per-domain audit result.
#[derive(Debug)]
pub struct DomainAudit {
    /// Domain index.
    pub index: u32,
    /// `true` when a TEE quote verified end-to-end; trust domain 0 is
    /// always `false` (it has no hardware to verify).
    pub attested: bool,
    /// The (possibly attested) status snapshot.
    pub status: Option<DomainStatus>,
    /// Why the audit of this domain failed, if it did.
    pub failure: Option<AuditFailure>,
}

/// How many domain audits this client has run, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Per-domain audits run: one per domain per audit round, whatever
    /// the outcome.
    pub audited_domains: u64,
}

/// The outcome of one full audit round.
#[derive(Debug)]
pub struct AuditReport {
    /// Per-domain details, index-ordered.
    pub domains: Vec<DomainAudit>,
    /// All domains report the same running app digest.
    pub digests_agree: bool,
    /// Evidence of log misbehavior collected this round.
    pub misbehavior: Vec<Misbehavior>,
    /// The agreed app digest (when `digests_agree`).
    pub app_digest: Option<Digest>,
}

impl AuditReport {
    /// The paper's acceptance criterion: every domain passed its per-domain
    /// checks, all digests agree, and no misbehavior evidence was found.
    pub fn is_clean(&self) -> bool {
        self.domains
            .iter()
            .all(|d| d.failure.is_none() && d.status.is_some())
            && self.digests_agree
            && self.misbehavior.is_empty()
    }
}

/// A stateful client for one deployment: connects to all domains, audits,
/// calls the application, and pushes updates (when it is the developer).
///
/// An audit is one pipelined [`Request::BatchAudit`] frame per domain
/// over a persistent connection, returning attestation, checkpoints, and
/// the consistency proofs in a single round-trip; the auditor's
/// verified-prefix cache skips everything it has already checked.
pub struct DeploymentClient {
    descriptor: DeploymentDescriptor,
    connections: Vec<Option<PipelinedClient<TcpTransport>>>,
    auditor: Auditor,
    /// Transferable misbehavior evidence this client holds — produced by
    /// its own auditor or verified after arriving through gossip. Once a
    /// domain is convicted here, every subsequent audit reports it as
    /// failed: evidence does not expire with the round that found it.
    evidence: EvidencePool,
    rng: Box<dyn RngCore + Send>,
    stats: AuditStats,
}

impl DeploymentClient {
    /// Creates a client; connections are opened lazily.
    pub fn new(descriptor: DeploymentDescriptor, rng: Box<dyn RngCore + Send>) -> Self {
        let auditor = Auditor::new(
            descriptor
                .domains
                .iter()
                .map(|d| d.checkpoint_key)
                .collect(),
        );
        let n = descriptor.domains.len();
        Self {
            descriptor,
            connections: (0..n).map(|_| None).collect(),
            auditor,
            evidence: EvidencePool::new(),
            rng,
            stats: AuditStats::default(),
        }
    }

    /// The deployment descriptor.
    pub fn descriptor(&self) -> &DeploymentDescriptor {
        &self.descriptor
    }

    /// Cumulative audit accounting.
    pub fn audit_stats(&self) -> AuditStats {
        self.stats
    }

    /// The auditor's verified-prefix cache for one domain: highest
    /// verified (total and per-shard) sizes plus performed/skipped
    /// verification counters — what tests and benches use to prove audit
    /// amortisation is real.
    pub fn auditor_prefix_cache(&self, domain: u32) -> Option<&distrust_log::VerifiedPrefixCache> {
        self.auditor.prefix_cache(domain)
    }

    /// The persistent connection to `domain`, opened on first use.
    fn connection(
        &mut self,
        domain: u32,
    ) -> Result<&mut PipelinedClient<TcpTransport>, ClientError> {
        let idx = domain as usize;
        let info = self
            .descriptor
            .domains
            .get(idx)
            .ok_or(ClientError::NoSuchDomain(domain))?;
        if self.connections[idx].is_none() {
            let transport = TcpTransport::connect(info.addr)?;
            self.connections[idx] = Some(PipelinedClient::new(transport));
        }
        Ok(self.connections[idx].as_mut().expect("just connected"))
    }

    /// Sends one already-encoded request frame to one domain without
    /// waiting for the response — the building block of pipelined fan-out.
    /// On failure the connection is dropped (reopened on next use) and any
    /// responses still in flight on it are lost.
    pub(crate) fn send_raw(&mut self, domain: u32, wire: &[u8]) -> Result<(), ClientError> {
        let idx = domain as usize;
        // A connection drowning in abandoned responses (a repeatedly
        // outpaced straggler) is cheaper to replace than to drain.
        if self.connections.get(idx).is_some_and(|c| {
            c.as_ref()
                .is_some_and(|c| c.abandoned_pending() > MAX_ABANDONED_PER_CONN)
        }) {
            self.connections[idx] = None;
        }
        match self.connection(domain)?.send(wire) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.connections[idx] = None;
                Err(ClientError::ConnectionLost(e))
            }
        }
    }

    /// Receives the next response frame from `domain` (blocking), after
    /// draining any responses the caller previously abandoned.
    pub(crate) fn recv_raw(&mut self, domain: u32) -> Result<Response, ClientError> {
        let idx = domain as usize;
        let conn = self.connections[idx]
            .as_mut()
            .ok_or(ClientError::NoSuchDomain(domain))?;
        match conn.recv_next() {
            Ok(frame) => Response::from_wire(&frame).map_err(ClientError::Decode),
            Err(e) => {
                self.connections[idx] = None;
                Err(ClientError::ConnectionLost(e))
            }
        }
    }

    /// Like [`Self::recv_raw`] but waits at most `timeout`; `Ok(None)`
    /// means no complete response arrived in time (partial bytes are
    /// retained by the transport — nothing desynchronises).
    pub(crate) fn try_recv_raw(
        &mut self,
        domain: u32,
        timeout: std::time::Duration,
    ) -> Result<Option<Response>, ClientError> {
        let idx = domain as usize;
        let conn = self.connections[idx]
            .as_mut()
            .ok_or(ClientError::NoSuchDomain(domain))?;
        match conn.recv_next_timeout(timeout) {
            Ok(Some(frame)) => Response::from_wire(&frame)
                .map(Some)
                .map_err(ClientError::Decode),
            Ok(None) => Ok(None),
            Err(e) => {
                self.connections[idx] = None;
                Err(ClientError::ConnectionLost(e))
            }
        }
    }

    /// Declares that the in-flight response from `domain` will never be
    /// collected (a quorum was satisfied without it); it is discarded when
    /// it eventually arrives, keeping the connection usable.
    pub(crate) fn abandon_response(&mut self, domain: u32) {
        if let Some(conn) = self.connections[domain as usize].as_mut() {
            conn.abandon_next_response();
        }
    }

    /// Sends one request to one domain.
    pub fn exchange(&mut self, domain: u32, request: &Request) -> Result<Response, ClientError> {
        self.send_raw(domain, &request.to_wire())?;
        self.recv_raw(domain)
    }

    /// Calls the application on one domain.
    ///
    /// Thin un-gated shim; prefer [`crate::session::Session`] (via
    /// [`Self::session`]) for application traffic — it audits before the
    /// first call and fans out to all domains in one round-trip.
    pub fn call(
        &mut self,
        domain: u32,
        method: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        match self.exchange(
            domain,
            &Request::AppCall {
                method,
                payload: payload.to_vec(),
            },
        )? {
            Response::AppResult { payload } => Ok(payload),
            Response::AppError(e) => Err(ClientError::App(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Opens a trust-gated session over this client (see
    /// [`crate::session::Session`]): the policy's audit runs before the
    /// first application call, by construction.
    pub fn session(&mut self, policy: crate::session::TrustPolicy) -> crate::session::Session<'_> {
        crate::session::Session::new(self, policy)
    }

    /// Pushes a signed release to every domain (the developer's update
    /// flow, Figure 2 left). Returns per-domain results.
    ///
    /// The release — module bytes included — is encoded exactly once and
    /// the same frame is fanned out to all `n` domains, every request in
    /// flight before any acknowledgement is read.
    pub fn push_update(
        &mut self,
        release: &crate::manifest::SignedRelease,
    ) -> Vec<Result<(u64, Digest), ClientError>> {
        let wire = Request::encode_update(release);
        let n = self.descriptor.domains.len() as u32;
        let sent: Vec<Result<(), ClientError>> = (0..n).map(|d| self.send_raw(d, &wire)).collect();
        sent.into_iter()
            .enumerate()
            .map(|(d, sent)| {
                sent?;
                match self.recv_raw(d as u32)? {
                    Response::UpdateAck { log_size, digest } => Ok((log_size, digest)),
                    Response::UpdateRejected(e) => Err(ClientError::UpdateRejected(e)),
                    other => Err(ClientError::Unexpected(format!("{other:?}"))),
                }
            })
            .collect()
    }

    /// Fetches update notices from a domain.
    pub fn notices(&mut self, domain: u32, since: u64) -> Result<Vec<UpdateNotice>, ClientError> {
        match self.exchange(domain, &Request::GetNotices { since })? {
            Response::Notices(n) => Ok(n),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches raw log leaves from a domain.
    pub fn log_entries(&mut self, domain: u32, from: u64) -> Result<Vec<Vec<u8>>, ClientError> {
        match self.exchange(domain, &Request::GetLogEntries { from })? {
            Response::LogEntries(entries) => Ok(entries),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches raw log leaves of one **shard** from a domain (on a
    /// 1-shard log, shard 0 is the whole log).
    pub fn shard_entries(
        &mut self,
        domain: u32,
        shard: u32,
        from: u64,
    ) -> Result<Vec<Vec<u8>>, ClientError> {
        match self.exchange(domain, &Request::GetShardEntries { shard, from })? {
            Response::LogEntries(entries) => Ok(entries),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Exports this client's latest verified checkpoints for gossiping to
    /// other clients (split-view detection, CT-style).
    pub fn gossip_payload(&self) -> Vec<(u32, distrust_log::SignedCheckpoint)> {
        self.auditor.gossip_payload()
    }

    /// Ingests checkpoints relayed by another client. Returns any
    /// misbehavior evidence discovered — in particular, an
    /// [`distrust_log::Misbehavior::Equivocation`] when a domain showed
    /// this client and the peer conflicting histories.
    pub fn ingest_gossip(
        &mut self,
        payload: &[(u32, distrust_log::SignedCheckpoint)],
    ) -> Vec<Misbehavior> {
        let mut found = Vec::new();
        for (domain, cp) in payload {
            if let AuditOutcome::Misbehavior(m) = self.auditor.ingest_gossip(*domain, cp.clone()) {
                if let Some(bundle) = EvidenceBundle::from_misbehavior(&m) {
                    self.evidence.insert(bundle);
                }
                found.push(*m);
            }
        }
        found
    }

    /// The gossip envelope this client would hand a peer (or piggyback on
    /// an audit): its latest verified checkpoint heads plus all
    /// transferable evidence it holds.
    pub fn gossip_envelope(&self) -> GossipEnvelope {
        GossipEnvelope {
            heads: self
                .auditor
                .gossip_payload()
                .into_iter()
                .map(|(domain, checkpoint)| GossipHead { domain, checkpoint })
                .collect(),
            evidence: self.evidence.items().to_vec(),
        }
    }

    /// Merges a peer's (or a domain bulletin board's) envelope: heads are
    /// checked for conflicts against everything this client has verified,
    /// and evidence is verified against the pinned checkpoint keys.
    /// Returns every *newly discovered* piece of misbehavior.
    pub fn ingest_envelope(&mut self, envelope: &GossipEnvelope) -> Vec<Misbehavior> {
        let mut found = Vec::new();
        for head in &envelope.heads {
            if let AuditOutcome::Misbehavior(m) = self
                .auditor
                .ingest_gossip(head.domain, head.checkpoint.clone())
            {
                if let Some(bundle) = EvidenceBundle::from_misbehavior(&m) {
                    self.evidence.insert(bundle);
                }
                found.push(*m);
            }
        }
        for bundle in &envelope.evidence {
            if self.ingest_evidence(bundle) {
                found.push(Misbehavior::Equivocation {
                    domain: bundle.domain,
                    proof: bundle.proof.clone(),
                });
            }
        }
        found
    }

    /// Verifies one transferable evidence bundle against the pinned
    /// checkpoint key of the accused domain and, if it holds, keeps it.
    /// Returns `true` when the bundle is valid **and new** — invalid
    /// bundles (including attempts to frame an honest domain) and
    /// duplicates are dropped without effect.
    pub fn ingest_evidence(&mut self, bundle: &EvidenceBundle) -> bool {
        let Some(info) = self.descriptor.domains.get(bundle.domain as usize) else {
            return false;
        };
        if !bundle.verify(&info.checkpoint_key) {
            return false;
        }
        self.evidence.insert(bundle.clone())
    }

    /// The transferable evidence this client holds.
    pub fn evidence(&self) -> &[EvidenceBundle] {
        self.evidence.items()
    }

    /// Whether this client holds verified evidence convicting `domain`.
    pub fn convicted(&self, domain: u32) -> bool {
        self.evidence.convicts(domain)
    }

    /// One explicit epidemic exchange with `domain`: send this client's
    /// envelope, ingest whatever the domain's bulletin board answers.
    /// Returns newly discovered misbehavior. An error frame back is an
    /// empty discovery, since gossip is best-effort by design.
    pub fn gossip_with_domain(&mut self, domain: u32) -> Result<Vec<Misbehavior>, ClientError> {
        let request = Request::Gossip {
            envelope: self.gossip_envelope(),
        };
        match self.exchange(domain, &request)? {
            Response::Gossip { envelope } => Ok(self.ingest_envelope(&envelope)),
            Response::Error(_) => Ok(Vec::new()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Performs a full audit round across all domains.
    ///
    /// One [`Request::BatchAudit`] goes to every domain — pipelined, so
    /// every domain's request is in flight before any response is read —
    /// and brings back attestation, checkpoints, and the consistency
    /// proofs in a single round-trip per domain, matched by request id.
    /// A gossip exchange rides right behind it on the same connection.
    /// Per domain the client:
    ///
    /// 1. verifies the TEE quote end-to-end (cert chain → vendor root,
    ///    evidence, measurement, nonce echo);
    /// 2. feeds the bundle to the auditor, which verifies signatures and
    ///    the per-shard consistency runs only *above* its verified prefix
    ///    and hunts for equivocation inside the bundle and against
    ///    everything previously seen;
    /// 3. requires the freshest checkpoint to match the attested status.
    ///
    /// A transport failure (a stale connection to a restarted domain,
    /// say) drops the connection and re-sends the request once on a fresh
    /// connection, in the same round; a second failure is that domain's
    /// [`AuditFailure::Request`]. Finally the digest histories are
    /// cross-checked across all domains.
    ///
    /// `expected_app` pins the digest of the published code, when the
    /// client has computed it from source (§3.3's "the developer
    /// open-sources her code").
    pub fn audit(&mut self, expected_app: Option<&Digest>) -> AuditReport {
        let expected_measurement = self.descriptor.expected_measurement();
        let n = self.descriptor.domains.len() as u32;
        let mut misbehavior = Vec::new();
        // The gossip piggyback is what makes "someone is watching"
        // ambient: every routine audit also compares notes.
        let gossip_wire = Request::Gossip {
            envelope: self.gossip_envelope(),
        }
        .to_wire();

        // Phase 1: pipeline one BatchAudit frame to every domain before
        // reading anything back.
        let pending: Vec<PendingAudit> = (0..n)
            .map(|d| {
                let mut nonce = [0u8; 32];
                self.rng.fill_bytes(&mut nonce);
                let verified_size = self.auditor.latest(d).map(|cp| cp.body.size).unwrap_or(0);
                let sent = self.send_batch_audit(d, nonce, verified_size, &gossip_wire);
                PendingAudit {
                    nonce,
                    verified_size,
                    sent,
                }
            })
            .collect();

        // Phase 2: collect and verify, retrying a transport failure once.
        let mut domains = Vec::with_capacity(n as usize);
        for (d, p) in (0..n).zip(pending) {
            let answer = match p
                .sent
                .and_then(|id| self.collect_batch_audit(d, id, &mut misbehavior))
            {
                Err(ClientError::Io(_) | ClientError::ConnectionLost(_)) => self
                    .send_batch_audit(d, p.nonce, p.verified_size, &gossip_wire)
                    .and_then(|id| self.collect_batch_audit(d, id, &mut misbehavior)),
                answer => answer,
            };
            domains.push(match answer {
                Ok(bundle) => self.process_shard_audit_bundle(
                    d,
                    p.nonce,
                    bundle,
                    &expected_measurement,
                    &mut misbehavior,
                ),
                Err(e) => DomainAudit {
                    index: d,
                    attested: false,
                    status: None,
                    failure: Some(AuditFailure::Request(e)),
                },
            });
        }
        self.stats.audited_domains += u64::from(n);

        // Evidence never expires with the round that found it: a domain
        // convicted by transferable proof — whether discovered locally or
        // relayed through the mesh — fails every audit from then on.
        for audit in &mut domains {
            if audit.failure.is_none() && self.evidence.convicts(audit.index) {
                audit.failure = Some(AuditFailure::Convicted);
            }
        }

        // Phase 3: cross-domain digest comparison.
        if let AuditOutcome::Misbehavior(m) = self.auditor.cross_check() {
            misbehavior.push(*m);
        }
        let digests: Vec<Digest> = domains
            .iter()
            .filter_map(|d| d.status.as_ref().map(|s| s.app_digest))
            .collect();
        let mut digests_agree =
            digests.len() == domains.len() && distrust_log::digests_match(&digests);
        if let (true, Some(expected)) = (digests_agree, expected_app) {
            if digests.first() != Some(expected) {
                digests_agree = false;
            }
        }
        let app_digest = if digests_agree {
            digests.first().copied()
        } else {
            None
        };

        AuditReport {
            domains,
            digests_agree,
            misbehavior,
            app_digest,
        }
    }

    /// Sends one `BatchAudit` to `domain` with the gossip exchange right
    /// behind it (servers answer strictly in request order, so the bundle
    /// is the first frame back and the envelope the second). Returns the
    /// request id; on failure the connection is dropped.
    fn send_batch_audit(
        &mut self,
        domain: u32,
        nonce: [u8; 32],
        verified_size: u64,
        gossip_wire: &[u8],
    ) -> Result<u64, ClientError> {
        let conn = self.connection(domain)?;
        let request_id = conn.next_request_id();
        let request = Request::BatchAudit {
            request_id,
            nonce,
            verified_size,
        };
        match conn
            .send(&request.to_wire())
            .and_then(|()| conn.send(gossip_wire))
        {
            Ok(()) => Ok(request_id),
            Err(e) => {
                self.connections[domain as usize] = None;
                Err(ClientError::ConnectionLost(e))
            }
        }
    }

    /// Reads the answer to an in-flight `BatchAudit`, then drains the
    /// gossip envelope riding behind it. A 1-shard domain answers with
    /// the single-tree bundle (tag 12), a multi-shard one with the
    /// sharded bundle (tag 13) — both carry the echoed request id in the
    /// same position, so one peek matches either, and the single-tree
    /// bundle is returned as its 1-shard view.
    fn collect_batch_audit(
        &mut self,
        domain: u32,
        id: u64,
        misbehavior: &mut Vec<Misbehavior>,
    ) -> Result<ShardAuditBundle, ClientError> {
        let idx = domain as usize;
        let received = match self.connections[idx].as_mut() {
            Some(conn) => conn.recv_matching(id, Response::peek_request_id),
            None => Err(distrust_wire::TransportError::Disconnected),
        };
        let frame = match received {
            Ok(frame) => frame,
            Err(e) => {
                self.connections[idx] = None;
                return Err(ClientError::ConnectionLost(e));
            }
        };
        self.collect_gossip_answer(domain, misbehavior);
        match Response::from_wire(&frame).map_err(ClientError::Decode)? {
            Response::AuditBundle(b) => Ok(ShardAuditBundle {
                request_id: b.request_id,
                attestation: b.attestation,
                bundle: b.bundle.into(),
            }),
            Response::ShardAuditBundle(b) => Ok(*b),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drains and ingests the gossip envelope riding behind a pipelined
    /// `BatchAudit` on `domain`'s connection. Gossip is best-effort: a
    /// lost connection (reopened on next use) or any answer other than an
    /// envelope is simply skipped.
    fn collect_gossip_answer(&mut self, domain: u32, misbehavior: &mut Vec<Misbehavior>) {
        if let Ok(Response::Gossip { envelope }) = self.recv_raw(domain) {
            misbehavior.extend(self.ingest_envelope(&envelope));
        }
    }

    /// Checks a TEE quote end-to-end (vendor pin, cert chain,
    /// measurement, nonce binding) or accepts a plain status for
    /// vendor-less domains. Returns the status and whether it was
    /// attested.
    fn verify_attestation(
        &self,
        domain: u32,
        attestation: BundleAttestation,
        nonce: [u8; 32],
        expected_measurement: &Digest,
    ) -> Result<(DomainStatus, bool), String> {
        let info = &self.descriptor.domains[domain as usize];
        match attestation {
            BundleAttestation::Quote(quote) => {
                if info.vendor.is_none() {
                    return Err("domain 0 unexpectedly returned a quote".to_string());
                }
                if info.vendor != Some(quote.document.vendor) {
                    return Err(format!(
                        "vendor mismatch: pinned {:?}, quoted {:?}",
                        info.vendor, quote.document.vendor
                    ));
                }
                quote
                    .verify(
                        &self.descriptor.vendor_roots,
                        Some(expected_measurement),
                        None,
                    )
                    .map_err(|e| format!("quote verification failed: {e}"))?;
                match AttestationBinding::from_wire(&quote.document.user_data) {
                    Ok(binding) if binding.nonce == nonce => Ok((binding.status, true)),
                    Ok(_) => Err("stale quote: nonce mismatch".to_string()),
                    Err(e) => Err(format!("malformed attestation binding: {e}")),
                }
            }
            BundleAttestation::Unattested(status) => match info.vendor {
                Some(_) => Err("TEE-backed domain refused to attest".to_string()),
                None => Ok((status, false)),
            },
        }
    }

    /// Verifies one domain's audit answer: attestation first, then the
    /// bundle through the auditor's sharded walk (per-epoch commitment
    /// recomputation, per-shard consistency runs, per-shard verified
    /// prefixes), then that its freshest checkpoint is the attested
    /// status. A correctly signed bundle is fed to the auditor even when
    /// it disagrees with the status: it is evidence either way.
    fn process_shard_audit_bundle(
        &mut self,
        domain: u32,
        nonce: [u8; 32],
        response: ShardAuditBundle,
        expected_measurement: &Digest,
        misbehavior: &mut Vec<Misbehavior>,
    ) -> DomainAudit {
        let mut audit = DomainAudit {
            index: domain,
            attested: false,
            status: None,
            failure: None,
        };
        let (status, attested) = match self.verify_attestation(
            domain,
            response.attestation,
            nonce,
            expected_measurement,
        ) {
            Ok(verified) => verified,
            Err(why) => {
                audit.failure = Some(AuditFailure::Attestation(why));
                return audit;
            }
        };
        let matches_status = response.bundle.epochs.last().is_some_and(|e| {
            e.checkpoint.body.size == status.log_size && e.checkpoint.body.head == status.log_head
        });
        match self.auditor.observe_shard_bundle(domain, &response.bundle) {
            AuditOutcome::Consistent if !matches_status => {
                audit.failure = Some(AuditFailure::StatusMismatch);
            }
            AuditOutcome::Consistent => {}
            AuditOutcome::Misbehavior(m) => {
                misbehavior.push((*m).clone());
                audit.failure = Some(AuditFailure::Misbehavior(m));
            }
        }
        audit.attested = attested;
        audit.status = Some(status);
        audit
    }
}

/// One domain's `BatchAudit` in this round: what was asked, and the
/// request id it is in flight under (or why it could not be sent).
struct PendingAudit {
    nonce: [u8; 32],
    verified_size: u64,
    sent: Result<u64, ClientError>,
}

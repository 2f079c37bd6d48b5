//! Client-side request pipelining over one connection.
//!
//! The audit hot path used to pay one round-trip per protocol step per
//! domain, serially. [`PipelinedClient`] keeps several requests in flight
//! on a single persistent connection: the caller tags each request with an
//! id the server echoes back, sends them all, then collects responses in
//! any order — [`PipelinedClient::recv_matching`] parks frames that answer
//! a different id until they are asked for.
//!
//! The id lives inside the application payload (the wire framing stays
//! plain length-prefixed frames), so a pipelined client works with
//! servers that answer strictly in order — every server in this
//! workspace. A server that rejects a request with an id-less error
//! frame is not waited on forever: `recv_matching` surfaces that frame
//! immediately, so the caller can report it.

use crate::transport::{Transport, TransportError};
use std::collections::HashMap;
use std::time::Duration;

/// Cap on parked out-of-order responses; beyond this the peer is not
/// pipelining, it is flooding.
const MAX_PARKED: usize = 1024;

/// A connection with multiple in-flight requests, responses matched back
/// by an id the server echoes inside the payload.
pub struct PipelinedClient<T: Transport> {
    transport: T,
    next_id: u64,
    parked: HashMap<u64, Vec<u8>>,
    /// Responses the caller gave up waiting for (a quorum was satisfied
    /// without them). Responses arrive in request order per connection, so
    /// the next `skip` incoming frames answer abandoned requests and are
    /// discarded before anything is handed to the caller.
    skip: u64,
}

impl<T: Transport> PipelinedClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            next_id: 1,
            parked: HashMap::new(),
            skip: 0,
        }
    }

    /// Declares that the response to the oldest unanswered request will
    /// never be collected; the next incoming frame that would have
    /// answered it is silently discarded. Call once per abandoned request,
    /// in request order, before reusing the connection.
    pub fn abandon_next_response(&mut self) {
        self.skip += 1;
    }

    /// Number of abandoned responses not yet drained off the wire.
    pub fn abandoned_pending(&self) -> u64 {
        self.skip
    }

    /// Hands out the next request id (monotonic, never zero).
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one frame without waiting for a response.
    pub fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.transport.send(frame)
    }

    /// Plain one-request/one-response exchange for the sequential paths.
    pub fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.transport.send(frame)?;
        self.recv_next()
    }

    /// Receives the next frame addressed to the caller, draining any
    /// abandoned responses first.
    pub fn recv_next(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            let frame = self.transport.recv()?;
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            return Ok(frame);
        }
    }

    /// Like [`Self::recv_next`], but gives up after `timeout` with
    /// `Ok(None)`. Abandoned responses drained while waiting count against
    /// the same timeout budget (the deadline is fixed up front, not
    /// restarted per drained frame). Requires a transport that implements
    /// [`Transport::recv_timeout`] non-blockingly (TCP does); others fall
    /// back to a blocking receive.
    pub fn recv_next_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut remaining = timeout;
        loop {
            let Some(frame) = self.transport.recv_timeout(remaining)? else {
                return Ok(None);
            };
            if self.skip > 0 {
                self.skip -= 1;
                remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Ok(None);
                }
                continue;
            }
            return Ok(Some(frame));
        }
    }

    /// Receives until the frame whose id (per `id_of`) equals `want`.
    ///
    /// Frames carrying a *different* id are parked and handed out when
    /// their turn comes. A frame `id_of` cannot classify (no id — e.g. an
    /// error from a server that does not speak the pipelined request) is
    /// returned immediately: per-connection responses arrive in request
    /// order, so it is the answer to the oldest unanswered request.
    pub fn recv_matching(
        &mut self,
        want: u64,
        id_of: impl Fn(&[u8]) -> Option<u64>,
    ) -> Result<Vec<u8>, TransportError> {
        if let Some(frame) = self.parked.remove(&want) {
            return Ok(frame);
        }
        loop {
            let frame = self.transport.recv()?;
            // Frames answering abandoned requests arrive before anything
            // newer on this connection; drop them before classifying.
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            match id_of(&frame) {
                Some(id) if id == want => return Ok(frame),
                Some(id) => {
                    if self.parked.len() >= MAX_PARKED {
                        return Err(TransportError::Frame(crate::frame::FrameError::Io(
                            std::io::Error::other("pipelined response parking cap exceeded"),
                        )));
                    }
                    self.parked.insert(id, frame);
                }
                None => return Ok(frame),
            }
        }
    }

    /// Number of responses parked for later matching.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// The wrapped transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;

    /// Toy protocol for tests: 8-byte LE id, then payload; an empty frame
    /// has no id (the "old server error" shape).
    fn frame(id: u64, payload: &[u8]) -> Vec<u8> {
        let mut f = id.to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    fn id_of(frame: &[u8]) -> Option<u64> {
        let head: [u8; 8] = frame.get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(head))
    }

    #[test]
    fn in_order_responses_match() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        let id1 = client.next_request_id();
        let id2 = client.next_request_id();
        client.send(&frame(id1, b"q1")).unwrap();
        client.send(&frame(id2, b"q2")).unwrap();
        // Server answers in order.
        for _ in 0..2 {
            let req = b.recv().unwrap();
            let mut resp = req.clone();
            resp.extend_from_slice(b"-ack");
            b.send(&resp).unwrap();
        }
        assert_eq!(
            client.recv_matching(id1, id_of).unwrap(),
            frame(id1, b"q1-ack")
        );
        assert_eq!(
            client.recv_matching(id2, id_of).unwrap(),
            frame(id2, b"q2-ack")
        );
        assert_eq!(client.parked_len(), 0);
    }

    #[test]
    fn out_of_order_responses_are_parked_and_matched() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        let ids: Vec<u64> = (0..4).map(|_| client.next_request_id()).collect();
        for id in &ids {
            client.send(&frame(*id, b"req")).unwrap();
        }
        // Server answers in reverse order.
        let reqs: Vec<Vec<u8>> = (0..4).map(|_| b.recv().unwrap()).collect();
        for req in reqs.iter().rev() {
            b.send(req).unwrap();
        }
        // Client collects in send order anyway.
        for id in &ids {
            let resp = client.recv_matching(*id, id_of).unwrap();
            assert_eq!(id_of(&resp), Some(*id));
        }
        assert_eq!(client.parked_len(), 0);
    }

    #[test]
    fn idless_frame_surfaces_immediately() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        let id = client.next_request_id();
        client.send(&frame(id, b"new-style request")).unwrap();
        let _ = b.recv().unwrap();
        // An old server answers with a short error frame carrying no id.
        b.send(b"err").unwrap();
        let resp = client.recv_matching(id, id_of).unwrap();
        assert_eq!(resp, b"err");
    }

    #[test]
    fn disconnect_propagates() {
        let (a, b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        drop(b);
        assert!(matches!(
            client.recv_matching(1, id_of),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn abandoned_responses_are_drained_before_fresh_ones() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        // Two requests in flight; the caller gives up on the first.
        client.send(&frame(1, b"abandoned")).unwrap();
        client.send(&frame(2, b"wanted")).unwrap();
        client.abandon_next_response();
        assert_eq!(client.abandoned_pending(), 1);
        // The server answers both, in order.
        for _ in 0..2 {
            let req = b.recv().unwrap();
            b.send(&req).unwrap();
        }
        // recv_next skips the stale response and yields the fresh one.
        assert_eq!(client.recv_next().unwrap(), frame(2, b"wanted"));
        assert_eq!(client.abandoned_pending(), 0);
    }

    #[test]
    fn recv_matching_skips_abandoned_frames() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        client.send(&frame(7, b"old")).unwrap();
        client.abandon_next_response();
        client.send(&frame(8, b"new")).unwrap();
        for _ in 0..2 {
            let req = b.recv().unwrap();
            b.send(&req).unwrap();
        }
        // Without the skip, the id-7 frame would be parked forever (or
        // mis-surfaced for an id-less protocol); with it, id 8 matches.
        assert_eq!(client.recv_matching(8, id_of).unwrap(), frame(8, b"new"));
        assert_eq!(client.parked_len(), 0);
    }

    #[test]
    fn recv_next_timeout_times_out_then_delivers() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        assert!(client
            .recv_next_timeout(std::time::Duration::from_millis(5))
            .unwrap()
            .is_none());
        b.send(b"late").unwrap();
        assert_eq!(
            client
                .recv_next_timeout(std::time::Duration::from_millis(100))
                .unwrap(),
            Some(b"late".to_vec())
        );
    }
}

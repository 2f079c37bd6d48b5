//! # distrust-wire
//!
//! Deterministic serialization, framing, transports, and RPC for the
//! `distrust` workspace.
//!
//! Design notes: explicit message types with a canonical
//! binary codec so that hashed/signed structures have one byte
//! representation everywhere; real TCP loopback sockets wherever the
//! paper's evaluation attributes cost to socket hops. Serving comes in two
//! shapes: the original blocking thread-per-connection loop
//! ([`rpc::RpcServer`]) and a readiness-based event loop ([`reactor`],
//! [`frame_nb`], [`rpc::EventLoopRpcServer`]) that multiplexes thousands of
//! connections onto a small fixed thread pool.

pub mod codec;
pub mod frame;
pub mod frame_nb;
pub mod pipeline;
pub mod reactor;
pub mod rpc;
pub mod sync;
pub mod transport;

pub use codec::{Decode, DecodeError, Encode};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN, READ_CHUNK};
pub use frame_nb::{FrameReader, WriteBuf};
pub use pipeline::PipelinedClient;
pub use reactor::{FrameService, Reactor, ReactorHandle};
pub use rpc::{EventLoopRpcServer, RpcClient, RpcError, RpcHandler, RpcServer};
pub use sync::HealthyMutex;
pub use transport::{
    ChannelTransport, SharedTransport, TcpAcceptor, TcpTransport, Transport, TransportError,
};

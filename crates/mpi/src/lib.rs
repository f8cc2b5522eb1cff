//! # parc-mpi — the message-passing baseline
//!
//! The paper's fastest baseline is MPICH 1.2.6 over 100 Mbit Ethernet:
//! *"MPI requires explicit packing and unpacking of messages"* and its
//! well-optimised transport beats both remoting stacks on raw bandwidth
//! (Fig. 8a). What that comparison rests on is the message itself, so this
//! crate keeps exactly that:
//!
//! * explicit [`PackBuffer`] pack/unpack (`MPI_Pack` style) — the
//!   programmer burden the paper contrasts with object serialization;
//! * raw byte payloads — no per-message descriptors, the reason the MPI
//!   curve sits on the wire limit in Fig. 8a: `n` ints pack to `4·n` bytes.
//!
//! The figures take MPICH's cost from the `parc-sim` model; the parity
//! tests send packed buffers over a loopback socket with a length prefix.
//!
//! ```
//! use parc_mpi::PackBuffer;
//!
//! let mut tx = PackBuffer::new();
//! tx.pack_u64(3);
//! tx.pack_i32(&[7, -1, 42]);
//! assert_eq!(tx.len(), 8 + 3 * 4); // no descriptors on the wire
//!
//! let mut rx = PackBuffer::from_bytes(tx.into_bytes());
//! let n = rx.unpack_u64().unwrap() as usize;
//! assert_eq!(rx.unpack_i32(n).unwrap(), vec![7, -1, 42]);
//! ```

pub mod error;
pub mod pack;

pub use error::MpiError;
pub use pack::PackBuffer;

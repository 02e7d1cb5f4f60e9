//! Typed handles for nonblocking point-to-point operations.
//!
//! A [`Request`] names a posted receive in its communicator's request
//! table; [`SendRequest`] names a posted send. Handles are deliberately
//! not `Clone`: one posted operation, one handle, so completion charges
//! cannot be double-counted by accident (re-waiting an already-completed
//! request through the *same* handle is idempotent and free).
//!
//! ## Virtual-time semantics
//!
//! The network charge of a nonblocking message accrues from **post
//! time**: `isend` computes the arrival instant when it is called (the
//! payload departs as soon as the sender's egress link is free), and
//! nothing about the receiver's subsequent compute moves that instant.
//! Completion — `wait`, or a `test` that returns `true` — charges only
//! the receiver's protocol overhead and drags its clock forward to the
//! arrival time *if the clock is still behind it*. Compute performed
//! between post and completion therefore genuinely hides wire time in
//! `wtime`, while `busy` accrues exactly the same overheads as the
//! blocking path.

/// Handle to a posted nonblocking receive ([`Comm::irecv`]).
///
/// Complete it with [`Comm::wait`], [`Comm::wait_timeout`],
/// [`Comm::waitall`], or a successful [`Comm::test`]. Completing an
/// already-completed request returns the cached message again without
/// re-charging time.
///
/// [`Comm::irecv`]: crate::Comm::irecv
/// [`Comm::wait`]: crate::Comm::wait
/// [`Comm::wait_timeout`]: crate::Comm::wait_timeout
/// [`Comm::waitall`]: crate::Comm::waitall
/// [`Comm::test`]: crate::Comm::test
#[derive(Debug)]
pub struct Request {
    pub(crate) id: u64,
}

impl Request {
    /// The request's id in its communicator's table (diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Handle to a posted nonblocking send ([`Comm::isend`]).
///
/// Under the runtime's eager semantics the payload is buffered at the
/// destination at post time, so a send request is born complete; the
/// handle exists for API symmetry and diagnostics.
///
/// [`Comm::isend`]: crate::Comm::isend
#[derive(Debug)]
pub struct SendRequest {
    pub(crate) id: u64,
}

impl SendRequest {
    /// The request's id in its communicator's table (diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }
}

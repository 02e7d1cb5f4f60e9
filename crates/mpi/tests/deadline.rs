//! Recv-deadline diagnostics: a rank stuck waiting on a message that
//! never comes must abort with a report naming the blocked rank, the
//! communication op, the expected peer, and the tag.

use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};
use std::time::Duration;

/// Extracts the panic message regardless of payload type.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[test]
fn deadline_report_names_blocked_rank_and_site() {
    // Rank 0 waits for a tag-42 message from rank 1; rank 1 returns
    // without sending (the injected stall).
    let result = std::panic::catch_unwind(|| {
        World::builder()
            .ranks(2)
            .net(cluster(NetId::T3e))
            .recv_deadline(Duration::from_millis(150))
            .run(|c| {
                if c.rank() == 0 {
                    c.recv(Some(1), Some(42));
                }
            })
    });
    let text = panic_text(result.expect_err("stalled recv must abort"));
    assert!(text.contains("recv deadline"), "mentions the deadline: {text}");
    assert!(text.contains("rank 0"), "names the blocked rank: {text}");
    assert!(text.contains("peer 1"), "names the expected peer: {text}");
    assert!(text.contains("tag 42"), "names the expected tag: {text}");
    assert!(
        text.contains("rank 0: blocked in p2p recv (peer 1, tag 42)"),
        "the per-rank dump shows rank 0's site: {text}"
    );
    assert!(
        text.contains("rank 1: not blocked"),
        "the per-rank dump shows rank 1 ran to completion: {text}"
    );
}

#[test]
fn deadline_report_names_collective_op() {
    // Rank 0 enters a barrier alone; rank 1 never does. The dump must
    // attribute rank 0's wait to the barrier, not generic p2p. Rank 1
    // waits for a message nobody sends instead of returning: a rank that
    // has already exited when rank 0's barrier send is posted turns the
    // stall into "destination rank terminated".
    let result = std::panic::catch_unwind(|| {
        World::builder()
            .ranks(2)
            .net(cluster(NetId::T3e))
            .recv_deadline(Duration::from_millis(150))
            .run(|c| {
                if c.rank() == 0 {
                    c.barrier();
                } else {
                    c.recv(Some(0), Some(42));
                }
            })
    });
    let text = panic_text(result.expect_err("half-entered barrier must abort"));
    assert!(
        text.contains("rank 0: blocked in barrier recv"),
        "dump attributes the wait to the barrier: {text}"
    );
}

#[test]
fn deadline_does_not_fire_on_healthy_traffic() {
    let out = World::builder()
        .ranks(2)
        .net(cluster(NetId::T3e))
        .recv_deadline(Duration::from_millis(500))
        .run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0]);
                0.0
            } else {
                c.recv(Some(0), Some(7)).data.iter().sum::<f64>()
            }
        });
    assert_eq!(out, vec![0.0, 3.0]);
}

#[test]
fn comm_stats_count_traffic() {
    let out = World::builder().ranks(2).net(cluster(NetId::T3e)).run(|c| {
        if c.rank() == 0 {
            c.send(1, 1, &[0.0; 16]);
        } else {
            c.recv(Some(0), Some(1));
        }
        c.stats()
    });
    assert_eq!(out[0].sent_msgs, 1);
    assert_eq!(out[0].sent_bytes, 128);
    assert_eq!(out[1].recvd_msgs, 1);
    assert_eq!(out[1].recvd_bytes, 128);
}

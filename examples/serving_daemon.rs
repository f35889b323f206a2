//! The long-lived serving daemon, end to end in one process.
//!
//! Builds the paper's running-example engine, starts an
//! [`xml_view_update::server::Server`] on an ephemeral TCP port, and
//! drives it with the typed [`xml_view_update::server::Client`]: load a
//! document, open its view, propagate and commit a view update, read
//! the stats, shut down cleanly. The same daemon is what `xvu serve`
//! runs, and the same client is what `xvu client` wraps.
//!
//! To see the fleet-scale differential harness instead — many documents,
//! Zipf popularity, full lifecycles, every reply diffed against direct
//! library sessions — see `server::run_fleet` and `tests/serving.rs`.
//!
//! Run with: `cargo run --example serving_daemon`

use std::net::TcpListener;
use xml_view_update::prelude::*;
use xml_view_update::server::{Client, Server, ServerConfig};

fn main() {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").expect("DTD");
    let ann =
        parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").expect("annotation");
    let engines = [Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .expect("engine")];

    // at most one open session: switching documents parks the idle one
    // (its document moves out of the session into the store entry), and
    // reopening restores its identifier floor, so eviction is invisible
    let server = Server::new(
        &engines,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            pool_capacity: 1,
            retry_after_ms: 1,
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    println!("daemon listening on {addr}");

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_listener(listener).expect("serve"));

        let mut client = Client::connect(&addr).expect("connect + hello");
        client
            .load(
                1,
                0,
                "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
            )
            .expect("load");
        println!("view of document 1: {}", client.open(1).expect("open"));

        // the paper's running update: delete the first (a, d) group and
        // insert a fresh one
        let update = "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))";
        let reply = client.propagate(1, update).expect("propagate");
        println!(
            "propagated at cost {} ({} optimal propagations)",
            reply.cost, reply.count
        );
        println!("source script: {}", reply.script);
        client
            .verify(1, update, &reply.script)
            .expect("the daemon's own script verifies");
        client.commit(1).expect("commit");

        // opening a second document parks the first (pool capacity 1),
        // yet document 1 reopens with its committed state intact
        client
            .load(2, 0, "r#0(a#1, b#2, d#3(a#7, c#8))")
            .expect("load");
        client.open(2).expect("open evicts document 1");
        println!(
            "document 1 after eviction: {}",
            client.open(1).expect("reopen")
        );

        println!("stats: {}", client.stats().expect("stats"));
        client.shutdown().expect("shutdown");
        let report = daemon.join().expect("daemon thread");
        println!(
            "daemon drained {} ({} requests served)",
            if report.drained_clean {
                "clean"
            } else {
                "dirty"
            },
            report.stats.total_requests()
        );
    });
}

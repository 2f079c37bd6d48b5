//! Quickstart: bootstrap an auditable distributed-trust deployment in a
//! few lines and use it through a trust-gated session — the audit happens
//! before the first application call, *by construction*.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distrust::apps::analytics::{self, AnalyticsClient};
use distrust::core::{Deployment, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;

fn main() {
    println!("== distrust quickstart ==\n");

    // 1. The developer bootstraps a 3-domain deployment of the private
    //    analytics app. Domain 0 is her own machine (no secure hardware);
    //    domains 1-2 run inside simulated TEEs from different vendors.
    let deployment =
        Deployment::launch(analytics::app_spec(3), b"quickstart seed").expect("launch");
    println!("deployed {} trust domains:", deployment.domain_count());
    for d in &deployment.descriptor.domains {
        match d.vendor {
            Some(v) => println!("  domain {}: TEE ({}) at {}", d.index, v.name(), d.addr),
            None => println!(
                "  domain {}: developer-run, unattested, at {}",
                d.index, d.addr
            ),
        }
    }

    // 2. A user opens a trust-gated session. The policy pins the digest of
    //    the code the user (re)built from published source; the session
    //    will not let a single application byte through until every TEE
    //    domain attests the framework measurement, all domains agree on
    //    that digest, and the transparency-log checkpoints verify. No
    //    separate "remember to audit" step exists to forget.
    let mut client = deployment.client(b"quickstart user");
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));

    // 3. Use the application: submit private reports, aggregate. The
    //    first `submit` triggers the audit; each submission then fans its
    //    3 shares out in one round-trip (every domain's request in flight
    //    before any acknowledgement is read).
    let analytics_client = AnalyticsClient::new(3);
    let mut rng = HmacDrbg::new(b"user entropy", b"");
    for values in [[1u64, 0, 10], [0, 1, 20], [1, 1, 30]] {
        analytics_client
            .submit(&mut session, &values, &mut rng)
            .expect("submit");
    }
    let (totals, count) = analytics_client.aggregate(&mut session).expect("aggregate");
    println!("\naggregated {count} private reports → totals {totals:?}");
    assert_eq!(totals, vec![2, 2, 60]);

    // 4. The gating audit is inspectable after the fact.
    let report = session.last_audit().expect("audit ran before first call");
    println!("\ngating audit was clean: {}", report.is_clean());
    for d in &report.domains {
        println!(
            "  domain {}: attested={} app_digest={}",
            d.index,
            d.attested,
            d.status
                .as_ref()
                .map(|s| hex(&s.app_digest[..8]))
                .unwrap_or_else(|| "?".into())
        );
    }
    assert!(report.is_clean());
    assert_eq!(session.trusted_domains(), vec![0, 1, 2]);

    // What the audit actually verified: each domain's append-only log is
    // a set of Merkle shards under one top-level commitment, and every
    // shard head **rolls up into the signed checkpoint** — the domain
    // signs `(total_size, shard_heads_root)`, so one signature vouches
    // for every shard at once and a per-shard inclusion proof ties any
    // shard head back to it. This deployment uses the default single
    // shard, where the commitment IS the tree root (the client verifies
    // it as a 1-shard log); `Deployment::launch_sharded(spec, seed, n)`
    // spreads apps across `n` shards for parallel appends, and the same
    // session code audits either layout transparently.

    println!("\nquickstart complete: deployed, audited-by-construction, used. ✅");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

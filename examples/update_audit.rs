//! The Figure 2 scenario: the developer pushes a code update and every
//! client can audit exactly what happened — including catching a
//! malicious update attempt.
//!
//! ```sh
//! cargo run --release --example update_audit
//! ```

use distrust::core::abi::{AppHost, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::{AppSpec, Deployment, NoImports};
use distrust::crypto::schnorr::SigningKey;
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};

/// A versioned greeter app: returns `version` as a single byte.
fn greeter(version: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    f.constant(OUTBOX_ADDR)
        .constant(version)
        .store8(0)
        .constant(1)
        .ret();
    let idx = mb.function(f.build().unwrap());
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

fn main() {
    println!("== Figure 2: auditable code updates ==\n");

    let spec = AppSpec {
        name: "greeter".into(),
        module: greeter(1),
        notes: "v1".into(),
        hosts: (0..3)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    let deployment = Deployment::launch(spec, b"update audit example").expect("launch");
    let mut user = deployment.client(b"auditing user");
    // The user talks to the app through a trust-gated session: the audit
    // runs before the first call below, by construction. Developer-side
    // operations (update pushes, raw log queries) go through the un-gated
    // client underneath, deliberately.
    let mut session = user.session(distrust::core::TrustPolicy::audited());

    println!(
        "v1 deployed to 3 domains; app answers: {:?}",
        session.call(1, 1, b"").unwrap()
    );
    println!(
        "initial (gating) audit clean: {}\n",
        session.last_audit().unwrap().is_clean()
    );

    // -- A malicious actor (without the developer key) tries to push code.
    println!("-- mallory pushes an unsigned update --");
    let mallory = SigningKey::derive(b"mallory", b"key");
    let evil = distrust::core::SignedRelease::create("greeter", 2, "fix", &greeter(66), &mallory);
    for (d, result) in session.client().push_update(&evil).into_iter().enumerate() {
        println!(
            "  domain {d}: {}",
            match result {
                Err(e) => format!("REJECTED ({e})"),
                Ok(_) => "accepted (!!)".into(),
            }
        );
    }
    assert_eq!(session.call(1, 1, b"").unwrap(), vec![1], "still v1");

    // -- The real developer pushes v2. The release is encoded once and
    //    the same frame is fanned out to all 3 domains, pipelined.
    println!("\n-- the developer pushes signed v2 --");
    let v2 = deployment.sign_release(2, "v2: better greetings", &greeter(2));
    let v2_digest = v2.digest();
    for (d, result) in session.client().push_update(&v2).into_iter().enumerate() {
        let (log_size, _) = result.expect("accepted");
        println!("  domain {d}: accepted, log now has {log_size} entries");
    }
    println!("app now answers: {:?}", session.call(1, 1, b"").unwrap());

    // -- What the client can verify afterwards.
    println!("\n-- client-side verification --");
    let client = session.client();
    // 1. Update notices were issued (before the new code served anything).
    let notices = client.notices(0, 0).unwrap();
    for n in &notices {
        println!(
            "  notice: {} v{} digest {}… at log index {}",
            n.manifest.app_name,
            n.manifest.version,
            hex(&n.manifest.code_digest[..8]),
            n.log_index
        );
    }
    // 2. The append-only log on every domain contains both digests, and
    //    the histories are identical across domains.
    let reference = client.log_entries(0, 0).unwrap();
    for d in 1..3u32 {
        assert_eq!(client.log_entries(d, 0).unwrap(), reference);
    }
    println!("  digest histories identical across all 3 domains ✅");
    // 3. The post-update audit is clean. Each domain answers with a single
    //    BatchAudit round-trip: attestation + the new checkpoint + a
    //    consistency proof linking it to the pre-update checkpoint this
    //    client already verified (nothing below that prefix is re-checked).
    let report = client.audit(Some(&v2_digest));
    println!("  post-update audit clean: {} ✅", report.is_clean());
    assert!(report.is_clean());
    println!(
        "  domain audits run by this client: {}",
        client.audit_stats().audited_domains
    );

    println!("\nusers never had to trust the developer's word: every step is auditable.");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

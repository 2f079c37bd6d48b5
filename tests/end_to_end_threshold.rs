//! End-to-end: the paper's prototype application on a full deployment.
//!
//! Deploys BLS threshold signing across n = 5 trust domains (t = 3) with
//! heterogeneous simulated TEEs, audits the deployment as a client would,
//! signs through the framework, and verifies the aggregate under the group
//! public key.

use distrust::apps::threshold_signer::{self, SignError, SignerHost, ThresholdSigningClient};
use distrust::core::{AppSpec, Deployment, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::fr::Fr;
use distrust::crypto::threshold::KeyShare;

/// Makes domain `d` byzantine: it keeps share index `d + 1` but signs with
/// a wrong share value, so its partials are well-formed points that fail
/// Feldman verification.
fn corrupt_domain(spec: &mut AppSpec, d: usize) {
    let share = KeyShare {
        index: (d + 1) as u8,
        value: Fr::from_u64(7),
    };
    spec.hosts[d] = Box::new(SignerHost::new(share));
}

#[test]
fn five_domain_threshold_signing() {
    let mut rng = HmacDrbg::new(b"e2e threshold", b"dealer");
    let (spec, public) = threshold_signer::setup(3, 5, &mut rng).expect("setup");
    let mut deployment = Deployment::launch(spec, b"e2e threshold seed").expect("launch");
    assert_eq!(deployment.domain_count(), 5);

    let mut client = deployment.client(b"client-1");
    // The audit must be clean before the client trusts the deployment —
    // the session runs it before the first sign request.
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));

    // Sign (a Threshold(3) fan-out across all 5 domains).
    let signer = ThresholdSigningClient::new(public.clone());
    let msg = b"transfer 10 tokens to alice";
    let sig = signer.sign(&mut session, msg).expect("signing");
    assert!(public.public_key.verify(msg, &sig));
    // Not valid for another message.
    assert!(!public
        .public_key
        .verify(b"transfer 1000 tokens to mallory", &sig));

    let report = session.last_audit().expect("gating audit ran");
    assert!(report.is_clean(), "audit failed: {report:?}");
    // Domain 0 is the developer's (unattested); the other four attested.
    assert!(!report.domains[0].attested);
    for d in &report.domains[1..] {
        assert!(d.attested, "domain {} not attested", d.index);
    }

    // Deterministic: BLS signatures are unique, so signing twice over any
    // t-subset yields the identical signature — even though the quorum
    // race may collect partials from a different subset each time.
    let sig2 = signer.sign(&mut session, msg).expect("signing again");
    assert_eq!(sig, sig2);

    drop(session);
    deployment.shutdown();
}

#[test]
fn signing_survives_minority_domain_failure() {
    let mut rng = HmacDrbg::new(b"e2e tolerance", b"dealer");
    let (spec, public) = threshold_signer::setup(2, 4, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e tolerance seed").expect("launch");
    // Corrupt the descriptor so two domains are unreachable — the client
    // must still collect t = 2 valid partials from the remaining two. The
    // session's gating audit marks the dead domains untrusted; the
    // Threshold(2) fan-out succeeds from the survivors.
    {
        // Rebuild a client whose descriptor points two domains at dead
        // addresses.
        let mut descriptor = deployment.descriptor.clone();
        descriptor.domains[1].addr = "127.0.0.1:1".parse().unwrap();
        descriptor.domains[3].addr = "127.0.0.1:1".parse().unwrap();
        let mut degraded = distrust::core::DeploymentClient::new(
            descriptor,
            Box::new(HmacDrbg::new(b"degraded", b"")),
        );
        let mut session = degraded.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(public.clone());
        let msg = b"resilient signing";
        let sig = signer.sign(&mut session, msg).expect("t-of-n resilience");
        assert!(public.public_key.verify(msg, &sig));
        assert_eq!(session.trusted_domains(), vec![0, 2]);
    }

    // Below threshold, signing must fail: three domains dead.
    {
        let mut descriptor = deployment.descriptor.clone();
        for d in [0usize, 1, 3] {
            descriptor.domains[d].addr = "127.0.0.1:1".parse().unwrap();
        }
        let mut starved = distrust::core::DeploymentClient::new(
            descriptor,
            Box::new(HmacDrbg::new(b"starved", b"")),
        );
        let mut session = starved.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(public.clone());
        let err = signer.sign(&mut session, b"no quorum").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("partial"), "unexpected error: {msg}");
    }
}

#[test]
fn partial_signatures_verify_against_feldman_commitments() {
    let mut rng = HmacDrbg::new(b"e2e partials", b"dealer");
    let (spec, public) = threshold_signer::setup(2, 3, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e partials seed").expect("launch");
    let mut client = deployment.client(b"client-3");
    let mut session = client.session(TrustPolicy::audited());
    let signer = ThresholdSigningClient::new(public.clone());

    let msg = b"audited partial";
    for domain in 0..3 {
        let partial = signer
            .partial_from_domain(&mut session, domain, msg)
            .expect("partial");
        assert_eq!(partial.index, (domain + 1) as u8);
        assert!(distrust::crypto::threshold::verify_partial(
            &public.commitments,
            msg,
            &partial
        ));
        // And it is NOT a valid partial for a different message.
        assert!(!distrust::crypto::threshold::verify_partial(
            &public.commitments,
            b"other message",
            &partial
        ));
    }
}

#[test]
fn share_index_served_through_deployment() {
    let mut rng = HmacDrbg::new(b"e2e index", b"dealer");
    let (spec, _public) = threshold_signer::setup(1, 2, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e index seed").expect("launch");
    let mut client = deployment.client(b"client-4");
    for domain in 0..2u32 {
        let out = client
            .call(domain, threshold_signer::METHOD_INDEX, b"")
            .expect("index call");
        assert_eq!(out, vec![(domain + 1) as u8]);
    }
}

#[test]
fn signing_routes_around_byzantine_minority() {
    let mut rng = HmacDrbg::new(b"e2e byzantine", b"dealer");
    let (mut spec, public) = threshold_signer::setup(2, 5, &mut rng).expect("setup");
    for d in 1..=3 {
        corrupt_domain(&mut spec, d);
    }
    let deployment = Deployment::launch(spec, b"e2e byzantine seed").expect("launch");
    let mut client = deployment.client(b"client-byzantine");
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
    let signer = ThresholdSigningClient::new(public.clone());
    // Only domains 0 and 4 sign correctly, so almost every signature has a
    // bad partial among the first two that arrive and must be recovered by
    // dropping it and asking the remaining domains.
    for i in 0..10 {
        let msg = format!("byzantine message {i}");
        let sig = signer
            .sign(&mut session, msg.as_bytes())
            .unwrap_or_else(|e| panic!("signature {i}: {e}"));
        assert!(
            public.public_key.verify(msg.as_bytes(), &sig),
            "signature {i}"
        );
    }
}

#[test]
fn byzantine_and_dead_domains_leave_too_few_valid_partials() {
    let mut rng = HmacDrbg::new(b"e2e byzantine", b"starved");
    let (mut spec, public) = threshold_signer::setup(2, 3, &mut rng).expect("setup");
    corrupt_domain(&mut spec, 1);
    let deployment = Deployment::launch(spec, b"e2e byzantine starved").expect("launch");
    let mut descriptor = deployment.descriptor.clone();
    descriptor.domains[2].addr = "127.0.0.1:1".parse().unwrap();
    let mut client = distrust::core::DeploymentClient::new(
        descriptor,
        Box::new(HmacDrbg::new(b"byzantine starved", b"")),
    );
    let mut session = client.session(TrustPolicy::audited());
    let signer = ThresholdSigningClient::new(public);
    // Domain 1's partial is well-formed, so it is combined, the aggregate
    // fails, and the per-partial check leaves only domain 0's: the error
    // names the shortfall, not the bad aggregate.
    let err = signer.sign(&mut session, b"one honest domain").unwrap_err();
    assert!(
        matches!(err, SignError::NotEnoughPartials { got: 1, need: 2 }),
        "unexpected error: {err:?}"
    );
}

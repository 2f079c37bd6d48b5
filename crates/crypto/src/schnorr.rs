//! Schnorr signatures over BLS12-381 G1.
//!
//! These are the workhorse signatures of the framework substrate — cheaper
//! than BLS (no pairing at verification) and used wherever the paper needs a
//! plain signature rather than a threshold one:
//!
//! * the **developer update key** sealed into each TEE (§4.1: "each
//!   subsequent update needs to be accompanied by a signature that verifies
//!   under the original public key"),
//! * **vendor attestation roots** and device certificates in the simulated
//!   secure hardware,
//! * **signed log checkpoints** from each trust domain.
//!
//! Nonces are deterministic (RFC 6979 flavour, via HMAC-DRBG keyed on the
//! secret key and message), so signing never consumes ambient randomness.
//!
//! ## One verification equation
//!
//! A signature `(R, s)` on `m` under `pk` is valid when
//! `s·G − e·pk − R == O` with `e = H(R, pk, m)`.
//! [`VerifyingKey::verify_batch`] checks `n` signatures under one key with
//! a single random linear combination of those equations,
//!
//! ```text
//! (Σ zᵢsᵢ)·G − (Σ zᵢeᵢ)·pk − Σ zᵢRᵢ == O,
//! ```
//!
//! evaluated as one windowed Straus multi-scalar multiplication;
//! [`VerifyingKey::verify`] is the one-item
//! case with weight `z = 1`.
//!
//! ## Subgroup invariant
//!
//! Batch soundness needs every `Rᵢ` and `pk` in the prime-order subgroup
//! G1: a point with a small-order component `T` could make a bad item's
//! term vanish whenever the order of `T` divides its weight. The type
//! system guarantees membership — the fields of [`SchnorrSignature`] and
//! [`VerifyingKey`] are crate-private, so the only ways to obtain one are
//! [`SigningKey::sign`] / [`SigningKey::verifying_key`] (multiples of the
//! generator) and the `from_bytes` decoders, which reject points outside
//! G1 ([`G1Affine::from_compressed`]).

use crate::drbg::HmacDrbg;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1Projective};
use crate::sha256::{sha256_many, Sha256};

/// Domain tag bound into every challenge hash.
const CHALLENGE_DST: &[u8] = b"distrust/schnorr/v1";

/// Domain tag for the batch-verification weights.
const BATCH_DST: &[u8] = b"distrust/schnorr/batch-weights/v1";

/// A Schnorr secret key, stored with its public key so signing never
/// recomputes `sk·g₁`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    sk: Fr,
    vk: VerifyingKey,
}

/// A Schnorr public key (`sk·g₁`), always in G1 (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey(pub(crate) G1Affine);

/// A Schnorr signature `(R, s)` with `s = k + e·sk`; `R` is always in G1
/// (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchnorrSignature {
    /// Commitment point `R = k·g₁`.
    pub(crate) r: G1Affine,
    /// Response scalar.
    pub(crate) s: Fr,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SigningKey(<redacted>)")
    }
}

impl SigningKey {
    /// Wraps a nonzero scalar, computing its public key once.
    fn new(sk: Fr) -> Self {
        let vk = VerifyingKey(G1Projective::generator().mul_scalar(&sk).to_affine());
        Self { sk, vk }
    }

    /// Generates a fresh key.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fr::random_nonzero(rng))
    }

    /// Deterministically derives a key from seed material.
    pub fn derive(seed: &[u8], context: &[u8]) -> Self {
        let mut drbg = HmacDrbg::new(seed, context);
        Self::new(Fr::random_nonzero(&mut drbg))
    }

    /// Builds a key from a raw scalar (share-based identities).
    pub fn from_scalar(s: Fr) -> Option<Self> {
        if s.is_zero() {
            None
        } else {
            Some(Self::new(s))
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.vk
    }

    /// Signs `message` deterministically.
    pub fn sign(&self, message: &[u8]) -> SchnorrSignature {
        // Deterministic nonce: DRBG keyed on (sk, message).
        let sk_bytes = self.sk.to_bytes_be();
        let mut drbg = HmacDrbg::new(&sk_bytes, b"distrust/schnorr/nonce");
        drbg.reseed(message);
        let k = Fr::random_nonzero(&mut drbg);
        let r = G1Projective::generator().mul_scalar(&k).to_affine();
        let e = challenge(&r, &self.vk, message);
        let s = k.add(&e.mul(&self.sk));
        SchnorrSignature { r, s }
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `message`: `s·g₁ − e·pk − R == O`, the batch
    /// equation of [`VerifyingKey::verify_batch`] with one item and
    /// weight 1.
    pub fn verify(&self, message: &[u8], sig: &SchnorrSignature) -> bool {
        self.verify_weighted(&[(message, sig)], &[1])
    }

    /// Verifies every `(message, signature)` pair under this key with one
    /// equation, `(Σ zᵢsᵢ)·G − (Σ zᵢeᵢ)·pk − Σ zᵢRᵢ == O`, at roughly the
    /// cost of a single [`VerifyingKey::verify`] plus a 128-bit
    /// multiplication share per item. An empty batch verifies.
    ///
    /// **Weights.** Each `zᵢ` is a nonzero 128-bit integer hashed under a
    /// dedicated domain tag from `pk` and *every* pair of the batch, so
    /// it is deterministic (no RNG) yet unknown to a signer until the
    /// whole batch is fixed.
    ///
    /// **Soundness.** All points are in G1, of prime order `r > 2¹²⁸`
    /// (module docs), so item `i`'s defect `Dᵢ = sᵢG − eᵢpk − Rᵢ` is
    /// `dᵢ·G` for some `dᵢ ∈ Fr`. If some `dⱼ ≠ 0`, the batch equation
    /// `Σ zᵢdᵢ ≡ 0 (mod r)` holds for exactly one residue of `zⱼ`, and
    /// distinct 128-bit weights are distinct residues: a batch holding an
    /// invalid signature passes with probability at most
    /// `1/(2¹²⁸ − 1) ≈ 2⁻¹²⁸` per batch an adversary can form (modelling
    /// the weight hash as a random oracle). A `false` result does not say
    /// *which* item is bad; callers that need blame re-check items one by
    /// one with [`VerifyingKey::verify`].
    pub fn verify_batch(&self, items: &[(&[u8], &SchnorrSignature)]) -> bool {
        self.verify_weighted(items, &batch_weights(self, items))
    }

    /// The single verification equation, with explicit weights.
    fn verify_weighted(&self, items: &[(&[u8], &SchnorrSignature)], weights: &[u128]) -> bool {
        debug_assert_eq!(items.len(), weights.len());
        if self.0.infinity || items.iter().any(|(_, sig)| sig.r.infinity) {
            return false;
        }
        let mut s_sum = Fr::ZERO;
        let mut e_sum = Fr::ZERO;
        let mut terms = Vec::with_capacity(items.len() + 2);
        for ((message, sig), &z) in items.iter().zip(weights) {
            let z_limbs = [z as u64, (z >> 64) as u64, 0, 0];
            let z_fr = Fr::from_canonical_limbs(z_limbs).expect("2¹²⁸ < r");
            s_sum = s_sum.add(&z_fr.mul(&sig.s));
            e_sum = e_sum.add(&z_fr.mul(&challenge(&sig.r, self, message)));
            terms.push((G1Projective::from(sig.r).neg(), z_limbs));
        }
        terms.push((G1Projective::generator(), s_sum.to_canonical_limbs()));
        terms.push((G1Projective::from(self.0).neg(), e_sum.to_canonical_limbs()));
        G1Projective::multi_mul(&terms).is_identity()
    }

    /// Compressed encoding (48 bytes).
    pub fn to_bytes(&self) -> [u8; 48] {
        self.0.to_compressed()
    }

    /// Decoding with validation.
    pub fn from_bytes(bytes: &[u8; 48]) -> Option<Self> {
        G1Affine::from_compressed(bytes).map(VerifyingKey)
    }
}

impl SchnorrSignature {
    /// Wire encoding: compressed `R` (48 bytes) || `s` (32 bytes).
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[..48].copy_from_slice(&self.r.to_compressed());
        out[48..].copy_from_slice(&self.s.to_bytes_be());
        out
    }

    /// Decoding with validation.
    pub fn from_bytes(bytes: &[u8; 80]) -> Option<Self> {
        let mut rb = [0u8; 48];
        rb.copy_from_slice(&bytes[..48]);
        let mut sb = [0u8; 32];
        sb.copy_from_slice(&bytes[48..]);
        Some(Self {
            r: G1Affine::from_compressed(&rb)?,
            s: Fr::from_bytes_be(&sb)?,
        })
    }
}

/// The batch weights `zᵢ`: a seed hashes `pk`, the item count and every
/// length-prefixed message with its signature; weight `i` is the first 128
/// bits of `H(dst || seed || i || ctr)` for the first counter giving a
/// nonzero value.
fn batch_weights(pk: &VerifyingKey, items: &[(&[u8], &SchnorrSignature)]) -> Vec<u128> {
    let mut h = Sha256::new();
    h.update(BATCH_DST);
    h.update(&pk.to_bytes());
    h.update(&(items.len() as u64).to_be_bytes());
    for (message, sig) in items {
        h.update(&(message.len() as u64).to_be_bytes());
        h.update(message);
        h.update(&sig.to_bytes());
    }
    let seed = h.finalize();
    (0..items.len() as u64)
        .map(|i| {
            (0u32..)
                .map(|ctr| {
                    let d = sha256_many(&[BATCH_DST, &seed, &i.to_be_bytes(), &ctr.to_be_bytes()]);
                    let mut half = [0u8; 16];
                    half.copy_from_slice(&d[..16]);
                    u128::from_be_bytes(half)
                })
                .find(|&z| z != 0)
                .expect("a nonzero 128-bit weight")
        })
        .collect()
}

/// Fiat–Shamir challenge `e = H(dst || R || pk || m)` mapped into Fr.
fn challenge(r: &G1Affine, pk: &VerifyingKey, message: &[u8]) -> Fr {
    let mut h1 = Sha256::new();
    h1.update(CHALLENGE_DST);
    h1.update(&[0x01]);
    h1.update(&r.to_compressed());
    h1.update(&pk.to_bytes());
    h1.update(message);
    let d1 = h1.finalize();
    let mut h2 = Sha256::new();
    h2.update(CHALLENGE_DST);
    h2.update(&[0x02]);
    h2.update(&r.to_compressed());
    h2.update(&pk.to_bytes());
    h2.update(message);
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Fr::from_hash_wide(&wide)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(tag: &[u8]) -> (SigningKey, VerifyingKey) {
        let sk = SigningKey::derive(b"schnorr test seed", tag);
        let vk = sk.verifying_key();
        (sk, vk)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (sk, vk) = keypair(b"a");
        let sig = sk.sign(b"update manifest v2");
        assert!(vk.verify(b"update manifest v2", &sig));
    }

    #[test]
    fn deterministic_signing() {
        let (sk, _) = keypair(b"det");
        assert_eq!(sk.sign(b"same message"), sk.sign(b"same message"));
        assert_ne!(sk.sign(b"message a"), sk.sign(b"message b"));
    }

    #[test]
    fn wrong_message_or_key_rejected() {
        let (sk, vk) = keypair(b"a");
        let (_, vk2) = keypair(b"b");
        let sig = sk.sign(b"genuine");
        assert!(!vk.verify(b"forged", &sig));
        assert!(!vk2.verify(b"genuine", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, vk) = keypair(b"t");
        let mut sig = sk.sign(b"msg");
        sig.s = sig.s.add(&Fr::ONE);
        assert!(!vk.verify(b"msg", &sig));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let (sk, vk) = keypair(b"ser");
        let sig = sk.sign(b"wire format");
        let bytes = sig.to_bytes();
        let back = SchnorrSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(vk.verify(b"wire format", &back));
    }

    #[test]
    fn key_bytes_round_trip() {
        let (_, vk) = keypair(b"kb");
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()), Some(vk));
    }

    #[test]
    fn malformed_signature_bytes_rejected() {
        assert!(SchnorrSignature::from_bytes(&[0u8; 80]).is_none());
        let (sk, _) = keypair(b"mal");
        let mut bytes = sk.sign(b"x").to_bytes();
        bytes[79] = 0xff; // push s out of canonical range likelihood
        bytes[48] = 0xff;
        assert!(SchnorrSignature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn signature_does_not_transfer_between_messages() {
        // Replaying (R, s) for a different message fails because the
        // challenge binds the message.
        let (sk, vk) = keypair(b"bind");
        let sig = sk.sign(b"pay alice 1 token");
        assert!(!vk.verify(b"pay mallory 1000 tokens", &sig));
    }

    /// Owned `(message, signature)` pairs.
    type Batch = Vec<(Vec<u8>, SchnorrSignature)>;

    /// `n` distinct signed messages under one key.
    fn signed_batch(sk: &SigningKey, n: usize) -> Batch {
        (0..n)
            .map(|i| {
                let m = format!("checkpoint {i}").into_bytes();
                let sig = sk.sign(&m);
                (m, sig)
            })
            .collect()
    }

    fn batch_refs(batch: &[(Vec<u8>, SchnorrSignature)]) -> Vec<(&[u8], &SchnorrSignature)> {
        batch.iter().map(|(m, s)| (m.as_slice(), s)).collect()
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        let (sk, vk) = keypair(b"batch");
        assert!(vk.verify_batch(&[]));
        for n in [1, 2, 7] {
            let batch = signed_batch(&sk, n);
            assert!(vk.verify_batch(&batch_refs(&batch)), "n = {n}");
        }
        // A byte-identical duplicate is still a valid item.
        let mut batch = signed_batch(&sk, 3);
        batch.push(batch[1].clone());
        assert!(vk.verify_batch(&batch_refs(&batch)));
    }

    #[test]
    fn batch_rejects_one_bad_item_anywhere() {
        let (sk, vk) = keypair(b"batch-bad");
        let n = 9;
        let honest = signed_batch(&sk, n);
        // A valid signature outside the batch, for the swap cases.
        let other_msg = b"some other message".to_vec();
        let other_sig = sk.sign(&other_msg);
        for pos in [0, n / 2, n - 1] {
            let neighbour = (pos + 1) % n;
            let tampered: [(&str, Batch); 5] = [
                ("s + 1", {
                    let mut b = honest.clone();
                    b[pos].1.s = b[pos].1.s.add(&Fr::ONE);
                    b
                }),
                ("message from another signature", {
                    let mut b = honest.clone();
                    b[pos].0 = other_msg.clone();
                    b
                }),
                ("message of another item", {
                    let mut b = honest.clone();
                    b[pos].0 = b[neighbour].0.clone();
                    b
                }),
                ("R from another signature", {
                    let mut b = honest.clone();
                    b[pos].1.r = other_sig.r;
                    b
                }),
                ("R of another item", {
                    let mut b = honest.clone();
                    b[pos].1.r = b[neighbour].1.r;
                    b
                }),
            ];
            for (case, batch) in tampered {
                let bad: Vec<usize> = (0..n)
                    .filter(|&i| !vk.verify(&batch[i].0, &batch[i].1))
                    .collect();
                assert_eq!(bad, vec![pos], "{case} at {pos}: exactly one bad item");
                assert!(!vk.verify_batch(&batch_refs(&batch)), "{case} at {pos}");
            }
        }
    }

    #[test]
    fn batch_rejects_defects_that_cancel_without_weights() {
        // s + 1 on one item and s − 1 on another cancel in the unweighted
        // sum Σ(sᵢG − eᵢpk − Rᵢ); the random weights must not let them.
        let (sk, vk) = keypair(b"batch-cancel");
        let mut batch = signed_batch(&sk, 4);
        batch[0].1.s = batch[0].1.s.add(&Fr::ONE);
        batch[3].1.s = batch[3].1.s.sub(&Fr::ONE);
        assert!(!vk.verify_batch(&batch_refs(&batch)));
        // Swapping R between two items also cancels without weights.
        let mut batch = signed_batch(&sk, 4);
        let (r1, r2) = (batch[1].1.r, batch[2].1.r);
        batch[1].1.r = r2;
        batch[2].1.r = r1;
        assert!(!vk.verify_batch(&batch_refs(&batch)));
    }

    #[test]
    fn batch_rejects_wrong_key_and_identity_points() {
        let (sk, vk) = keypair(b"batch-key");
        let (_, vk2) = keypair(b"batch-key-2");
        let batch = signed_batch(&sk, 3);
        assert!(!vk2.verify_batch(&batch_refs(&batch)));
        // The identity decodes (it is in G1) but is never a valid R or pk.
        let id = VerifyingKey::from_bytes(&G1Affine::identity().to_compressed()).unwrap();
        assert!(!id.verify_batch(&batch_refs(&batch)));
        let mut batch = batch;
        batch[2].1.r = G1Affine::identity();
        assert!(!vk.verify_batch(&batch_refs(&batch)));
        assert!(!vk.verify(&batch[2].0, &batch[2].1));
    }

    #[test]
    fn batch_weights_are_nonzero_and_bind_the_batch() {
        let (sk, vk) = keypair(b"weights");
        let batch = signed_batch(&sk, 4);
        let w = batch_weights(&vk, &batch_refs(&batch));
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|&z| z != 0));
        assert_eq!(w, batch_weights(&vk, &batch_refs(&batch)));
        // Changing any one item changes every weight.
        let mut other = batch.clone();
        other[3].0.push(b'!');
        let w2 = batch_weights(&vk, &batch_refs(&other));
        assert!(w.iter().zip(&w2).all(|(a, b)| a != b));
    }

    #[test]
    fn from_scalar_rejects_zero() {
        assert!(SigningKey::from_scalar(Fr::ZERO).is_none());
        assert!(SigningKey::from_scalar(Fr::ONE).is_some());
    }
}

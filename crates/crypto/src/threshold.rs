//! Threshold BLS signatures: Shamir secret sharing over `Fr`, Feldman
//! verifiable secret sharing, partial signatures, and Lagrange aggregation.
//!
//! This is the cryptographic core of the paper's prototype: "each trust
//! domain stores a secret key share, and the trust domains can jointly sign
//! a message" (§5). We implement a trusted-dealer setup hardened with
//! Feldman commitments so each trust domain can verify its share — strictly
//! stronger than the prototype's plain dealer, which a domain had to trust
//! to hand out consistent shares.

use crate::bls::{PublicKey, Signature};
use crate::fr::Fr;
use crate::g1::{hash_to_g1, G1Projective};
use crate::g2::{G2Affine, G2Projective};
use crate::pairing::pairing_equality;

/// Errors from threshold operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdError {
    /// Threshold must satisfy `1 <= t <= n` and `n <= 255`.
    InvalidParameters { t: usize, n: usize },
    /// Fewer than `t` (or duplicate-indexed) shares supplied.
    InsufficientShares { have: usize, need: usize },
    /// A share failed Feldman verification.
    ShareVerificationFailed { index: u8 },
    /// Duplicate share indices in an aggregation set.
    DuplicateIndex(u8),
}

impl core::fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidParameters { t, n } => {
                write!(f, "invalid threshold parameters t={t}, n={n}")
            }
            Self::InsufficientShares { have, need } => {
                write!(f, "insufficient shares: have {have}, need {need}")
            }
            Self::ShareVerificationFailed { index } => {
                write!(f, "share {index} failed Feldman verification")
            }
            Self::DuplicateIndex(i) => write!(f, "duplicate share index {i}"),
        }
    }
}

impl std::error::Error for ThresholdError {}

/// A secret share: the dealer polynomial evaluated at `x = index`.
#[derive(Clone, Copy)]
pub struct KeyShare {
    /// Share index in `1..=n` (never 0 — that would leak the secret).
    pub index: u8,
    /// `f(index)` — the share scalar.
    pub value: Fr,
}

impl core::fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeyShare {{ index: {}, value: <redacted> }}", self.index)
    }
}

/// Feldman commitments to the dealer polynomial: `C_j = coeff_j · g₂`.
/// Public; lets anyone verify a share and derive per-share public keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeldmanCommitments {
    /// `t` commitments, one per polynomial coefficient (degree `t-1`).
    pub coefficients: Vec<G2Affine>,
}

/// A partial BLS signature from one trust domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialSignature {
    /// Index of the share that produced this fragment.
    pub index: u8,
    /// `share · H(m)`.
    pub value: Signature,
}

/// Output of dealer-based key generation.
pub struct ThresholdKeys {
    /// The group public key `f(0)·g₂`.
    pub public_key: PublicKey,
    /// One share per trust domain.
    pub shares: Vec<KeyShare>,
    /// Feldman commitments for share verification.
    pub commitments: FeldmanCommitments,
}

impl FeldmanCommitments {
    /// The group public key, `C_0`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(self.coefficients[0])
    }

    /// Evaluates the commitment polynomial at `x = index` in the exponent,
    /// yielding the public key of that share: `pk_i = Σ_j C_j · index^j`.
    pub fn share_public_key(&self, index: u8) -> PublicKey {
        let x = Fr::from_u64(index as u64);
        let mut acc = G2Projective::identity();
        let mut x_pow = Fr::ONE;
        for c in &self.coefficients {
            acc = acc.add(&G2Projective::from(*c).mul_scalar(&x_pow));
            x_pow = x_pow.mul(&x);
        }
        PublicKey(acc.to_affine())
    }

    /// Verifies a share against the commitments: `share·g₂ == pk_index`.
    pub fn verify_share(&self, share: &KeyShare) -> bool {
        if share.index == 0 {
            return false;
        }
        let expect = self.share_public_key(share.index);
        let actual = G2Projective::generator()
            .mul_scalar(&share.value)
            .to_affine();
        expect.0 == actual
    }

    /// The threshold `t` (number of coefficients).
    pub fn threshold(&self) -> usize {
        self.coefficients.len()
    }
}

/// Dealer-based threshold key generation: samples a random degree-`t-1`
/// polynomial `f`, sets the group secret to `f(0)`, and hands share `f(i)`
/// to domain `i ∈ 1..=n`.
pub fn generate<R: rand::RngCore + ?Sized>(
    t: usize,
    n: usize,
    rng: &mut R,
) -> Result<ThresholdKeys, ThresholdError> {
    if t == 0 || t > n || n > 255 {
        return Err(ThresholdError::InvalidParameters { t, n });
    }
    let coeffs: Vec<Fr> = (0..t).map(|_| Fr::random_nonzero(rng)).collect();
    let commitments = FeldmanCommitments {
        coefficients: coeffs
            .iter()
            .map(|c| G2Projective::generator().mul_scalar(c).to_affine())
            .collect(),
    };
    let shares = (1..=n as u8)
        .map(|i| KeyShare {
            index: i,
            value: eval_poly(&coeffs, &Fr::from_u64(i as u64)),
        })
        .collect();
    Ok(ThresholdKeys {
        public_key: commitments.public_key(),
        shares,
        commitments,
    })
}

/// Horner evaluation of `f(x)` with coefficients in ascending order.
fn eval_poly(coeffs: &[Fr], x: &Fr) -> Fr {
    let mut acc = Fr::ZERO;
    for c in coeffs.iter().rev() {
        acc = acc.mul(x).add(c);
    }
    acc
}

/// Produces a partial signature with one share.
pub fn partial_sign(share: &KeyShare, message: &[u8]) -> PartialSignature {
    let h = hash_to_g1(message, crate::bls::MSG_DST);
    PartialSignature {
        index: share.index,
        value: Signature(h.mul_scalar(&share.value).to_affine()),
    }
}

/// Verifies a partial signature against the Feldman commitments:
/// `e(σ_i, g₂) == e(H(m), pk_i)`.
pub fn verify_partial(
    commitments: &FeldmanCommitments,
    message: &[u8],
    partial: &PartialSignature,
) -> bool {
    if partial.value.0.infinity {
        return false;
    }
    let pk_i = commitments.share_public_key(partial.index);
    let h = hash_to_g1(message, crate::bls::MSG_DST).to_affine();
    pairing_equality(&partial.value.0, &G2Affine::generator(), &h, &pk_i.0)
}

/// Lagrange coefficient `λ_i = Π_{j≠i} x_j / (x_j − x_i)` evaluated at 0.
fn lagrange_at_zero(indices: &[u8], i: usize) -> Fr {
    let xi = Fr::from_u64(indices[i] as u64);
    let mut num = Fr::ONE;
    let mut den = Fr::ONE;
    for (j, &idx) in indices.iter().enumerate() {
        if j == i {
            continue;
        }
        let xj = Fr::from_u64(idx as u64);
        num = num.mul(&xj);
        den = den.mul(&xj.sub(&xi));
    }
    num.mul(&den.invert().expect("distinct nonzero indices"))
}

/// Combines `t` (or more) partial signatures into the group signature via
/// Lagrange interpolation in the exponent. The result verifies under the
/// group public key exactly as an ordinary BLS signature.
pub fn aggregate(t: usize, partials: &[PartialSignature]) -> Result<Signature, ThresholdError> {
    if partials.len() < t {
        return Err(ThresholdError::InsufficientShares {
            have: partials.len(),
            need: t,
        });
    }
    let selected = &partials[..t];
    let mut seen = [false; 256];
    for p in selected {
        if p.index == 0 || seen[p.index as usize] {
            return Err(ThresholdError::DuplicateIndex(p.index));
        }
        seen[p.index as usize] = true;
    }
    let indices: Vec<u8> = selected.iter().map(|p| p.index).collect();
    let mut acc = G1Projective::identity();
    for (i, p) in selected.iter().enumerate() {
        let lambda = lagrange_at_zero(&indices, i);
        acc = acc.add(&G1Projective::from(p.value.0).mul_scalar(&lambda));
    }
    Ok(Signature(acc.to_affine()))
}

/// Reconstructs a shared secret scalar from `t` shares (used by tests and by
/// the key-backup recovery flow, *never* by the signing path — signing keeps
/// shares distributed).
pub fn reconstruct_secret(t: usize, shares: &[KeyShare]) -> Result<Fr, ThresholdError> {
    if shares.len() < t {
        return Err(ThresholdError::InsufficientShares {
            have: shares.len(),
            need: t,
        });
    }
    let selected = &shares[..t];
    let mut seen = [false; 256];
    for s in selected {
        if s.index == 0 || seen[s.index as usize] {
            return Err(ThresholdError::DuplicateIndex(s.index));
        }
        seen[s.index as usize] = true;
    }
    let indices: Vec<u8> = selected.iter().map(|s| s.index).collect();
    let mut acc = Fr::ZERO;
    for (i, s) in selected.iter().enumerate() {
        acc = acc.add(&lagrange_at_zero(&indices, i).mul(&s.value));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn setup(t: usize, n: usize, tag: &[u8]) -> ThresholdKeys {
        let mut rng = HmacDrbg::new(b"threshold tests", tag);
        generate(t, n, &mut rng).expect("valid parameters")
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = HmacDrbg::new(b"params", b"");
        assert!(matches!(
            generate(0, 5, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
        assert!(matches!(
            generate(6, 5, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
        assert!(matches!(
            generate(2, 300, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn shares_verify_against_commitments() {
        let keys = setup(3, 5, b"feldman");
        for share in &keys.shares {
            assert!(keys.commitments.verify_share(share));
        }
        // A corrupted share fails.
        let mut bad = keys.shares[0];
        bad.value = bad.value.add(&Fr::ONE);
        assert!(!keys.commitments.verify_share(&bad));
        // Index 0 is always rejected.
        let zero = KeyShare {
            index: 0,
            value: Fr::ONE,
        };
        assert!(!keys.commitments.verify_share(&zero));
    }

    #[test]
    fn threshold_signature_verifies_as_plain_bls() {
        let keys = setup(3, 5, b"sign");
        let msg = b"the treaty is signed";
        let partials: Vec<PartialSignature> = keys.shares[..3]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let sig = aggregate(3, &partials).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }

    #[test]
    fn any_t_subset_produces_same_signature() {
        let keys = setup(3, 5, b"subset");
        let msg = b"deterministic";
        let all: Vec<PartialSignature> = keys.shares.iter().map(|s| partial_sign(s, msg)).collect();
        let sig_a = aggregate(3, &[all[0], all[1], all[2]]).unwrap();
        let sig_b = aggregate(3, &[all[2], all[3], all[4]]).unwrap();
        let sig_c = aggregate(3, &[all[4], all[0], all[2]]).unwrap();
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_b, sig_c);
        assert!(keys.public_key.verify(msg, &sig_a));
    }

    #[test]
    fn fewer_than_t_shares_fail() {
        let keys = setup(3, 5, b"fewer");
        let msg = b"msg";
        let partials: Vec<PartialSignature> = keys.shares[..2]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        assert!(matches!(
            aggregate(3, &partials),
            Err(ThresholdError::InsufficientShares { have: 2, need: 3 })
        ));
    }

    #[test]
    fn t_minus_1_shares_give_wrong_signature() {
        // Interpolating with t-1 points (padded by reusing one) cannot
        // recover the polynomial — verify the resulting signature is invalid.
        let keys = setup(3, 5, b"undershoot");
        let msg = b"msg";
        let p0 = partial_sign(&keys.shares[0], msg);
        let p1 = partial_sign(&keys.shares[1], msg);
        // Aggregate with t=2 (attacker pretends threshold is lower).
        let forged = aggregate(2, &[p0, p1]).unwrap();
        assert!(!keys.public_key.verify(msg, &forged));
    }

    #[test]
    fn duplicate_indices_rejected() {
        let keys = setup(2, 3, b"dup");
        let msg = b"msg";
        let p = partial_sign(&keys.shares[0], msg);
        assert!(matches!(
            aggregate(2, &[p, p]),
            Err(ThresholdError::DuplicateIndex(1))
        ));
    }

    #[test]
    fn partial_verification() {
        let keys = setup(2, 4, b"partial");
        let msg = b"audit me";
        let good = partial_sign(&keys.shares[1], msg);
        assert!(verify_partial(&keys.commitments, msg, &good));
        // Wrong message.
        assert!(!verify_partial(&keys.commitments, b"other", &good));
        // A partial claiming the wrong index fails.
        let mislabeled = PartialSignature {
            index: 3,
            value: good.value,
        };
        assert!(!verify_partial(&keys.commitments, msg, &mislabeled));
    }

    /// The argument the signing client's combine-first path rests on: with
    /// fewer than `t` corrupt partials in a set, the aggregate verifies
    /// under the group key only if every partial is valid. Replacing any
    /// one partial with another valid G1 point always breaks the aggregate.
    #[test]
    fn one_wrong_partial_always_breaks_the_aggregate() {
        for t in [2, 3] {
            let keys = setup(t, t + 2, b"soundness");
            let msg = b"combine first";
            let honest: Vec<PartialSignature> = keys.shares[1..=t]
                .iter()
                .map(|s| partial_sign(s, msg))
                .collect();
            let sig = aggregate(t, &honest).unwrap();
            assert!(keys.public_key.verify(msg, &sig), "t={t}: honest set");
            for pos in 0..t {
                let mut set = honest.clone();
                // A valid subgroup point under the right index: what a
                // domain signing with a wrong share value sends.
                let wrong_share = KeyShare {
                    index: set[pos].index,
                    value: Fr::from_u64(7),
                };
                set[pos] = partial_sign(&wrong_share, msg);
                assert!(!verify_partial(&keys.commitments, msg, &set[pos]));
                let sig = aggregate(t, &set).unwrap();
                assert!(
                    !keys.public_key.verify(msg, &sig),
                    "t={t}: wrong partial at position {pos} passed"
                );
            }
        }
    }

    #[test]
    fn secret_reconstruction_round_trip() {
        let mut rng = HmacDrbg::new(b"reconstruct", b"");
        let keys = generate(3, 5, &mut rng).unwrap();
        let secret = reconstruct_secret(3, &keys.shares[1..4]).unwrap();
        // The reconstructed secret must produce the group public key.
        let pk = crate::bls::SecretKey(secret).public_key();
        assert_eq!(pk, keys.public_key);
    }

    #[test]
    fn reconstruction_with_wrong_share_differs() {
        let keys = setup(2, 3, b"tamper");
        let mut shares: Vec<KeyShare> = keys.shares[..2].to_vec();
        shares[0].value = shares[0].value.add(&Fr::ONE);
        let secret = reconstruct_secret(2, &shares).unwrap();
        let pk = crate::bls::SecretKey(secret).public_key();
        assert_ne!(pk, keys.public_key);
    }

    #[test]
    fn one_of_one_threshold() {
        let keys = setup(1, 1, b"solo");
        let msg = b"single domain";
        let p = partial_sign(&keys.shares[0], msg);
        let sig = aggregate(1, &[p]).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }

    #[test]
    fn large_committee() {
        let keys = setup(7, 10, b"large");
        let msg = b"ten domains";
        let partials: Vec<PartialSignature> = keys.shares[2..9]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let sig = aggregate(7, &partials).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }
}

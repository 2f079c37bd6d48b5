//! `G1` — the order-`r` subgroup of `E(Fp): y² = x³ + 4`.
//!
//! Points use Jacobian projective coordinates internally
//! (`x = X/Z²`, `y = Y/Z³`, infinity encoded as `Z = 0`). Scalar
//! multiplication is variable-time double-and-add; see the side-channel note
//! in [`crate::limbs`].
//!
//! Subgroup membership ([`G1Affine::is_torsion_free`]) uses Scott's
//! endomorphism test instead of multiplying by the 255-bit group order;
//! many-term sums `Σ kᵢ·Pᵢ` (batch signature verification) use
//! `G1Projective::multi_mul`, a windowed Straus multiplication.

use crate::fp::Fp;
use crate::fr::Fr;
use crate::limbs;
use crate::sha256::sha256_many;
use std::sync::OnceLock;

/// The G1 cofactor `h1 = 0x396c8c005555e1568c00aaab0000aaab`.
pub const COFACTOR: [u64; 2] = [0x8c00_aaab_0000_aaab, 0x396c_8c00_5555_e156];

/// `|z|` for the BLS12-381 curve parameter `z = -0xd201000000010000`:
/// 64 bits with Hamming weight 6, so a multiplication by it is 63
/// doublings and 5 additions.
const Z_ABS: u64 = 0xd201_0000_0001_0000;

/// The primitive cube root of unity `β ∈ Fp` for which the endomorphism
/// `φ(x, y) = (βx, y)` acts on G1 as multiplication by `−z²` (the other
/// root, `β²`, acts as `z² − 1`). Of the two roots `g^{(p−1)/3}` and its
/// square, the one that maps the generator correctly is kept.
fn beta() -> &'static Fp {
    static BETA: OnceLock<Fp> = OnceLock::new();
    BETA.get_or_init(|| {
        let exp = limbs::div_by_u64(&limbs::sub_small(&Fp::MODULUS, 1), 3);
        let omega = (2u64..)
            .map(|g| Fp::from_u64(g).pow_vartime(&exp))
            .find(|w| *w != Fp::ONE)
            .expect("Fp has a cubic non-residue");
        let g = G1Affine::generator();
        if g.endomorphism_matches(&omega) {
            omega
        } else {
            let other = omega.square();
            debug_assert!(g.endomorphism_matches(&other));
            other
        }
    })
}

/// Affine G1 point (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G1Affine {
    pub x: Fp,
    pub y: Fp,
    pub infinity: bool,
}

/// Jacobian-projective G1 point.
#[derive(Clone, Copy, Debug)]
pub struct G1Projective {
    pub x: Fp,
    pub y: Fp,
    pub z: Fp,
}

impl G1Affine {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp::ZERO,
            y: Fp::ZERO,
            infinity: true,
        }
    }

    /// The standard generator of G1.
    pub fn generator() -> Self {
        Self {
            x: Fp::from_raw_unchecked([
                0xfb3a_f00a_db22_c6bb,
                0x6c55_e83f_f97a_1aef,
                0xa14e_3a3f_171b_ac58,
                0xc368_8c4f_9774_b905,
                0x2695_638c_4fa9_ac0f,
                0x17f1_d3a7_3197_d794,
            ]),
            y: Fp::from_raw_unchecked([
                0x0caa_2329_46c5_e7e1,
                0xd03c_c744_a288_8ae4,
                0x00db_18cb_2c04_b3ed,
                0xfcf5_e095_d5d0_0af6,
                0xa09e_30ed_741d_8ae4,
                0x08b3_f481_e3aa_a0f1,
            ]),
            infinity: false,
        }
    }

    /// Curve membership: `y² == x³ + 4` (or infinity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = self.y.square();
        let x3_plus_b = self.x.square().mul(&self.x).add(&Fp::from_u64(4));
        y2 == x3_plus_b
    }

    /// Subgroup membership of a point on the curve, by Scott's
    /// endomorphism test: `P ∈ G1` iff `φ(P) == −z²·P` with
    /// `φ(x, y) = (βx, y)` (M. Scott, "A note on group membership tests
    /// for G1, G2 and GT on BLS pairing-friendly curves", ePrint 2021/1130,
    /// §6; the proof is corrected in El Housni–Guillevic–Piellard,
    /// ePrint 2022/352). Two multiplications by the 64-bit, weight-6 `|z|`
    /// replace one by the 255-bit order `r`. Variable time.
    pub fn is_torsion_free(&self) -> bool {
        self.endomorphism_matches(beta())
    }

    /// `(βx, y) == −z²·P` for a candidate cube root of unity `β`.
    fn endomorphism_matches(&self, beta: &Fp) -> bool {
        if self.infinity {
            return true;
        }
        let z2p = G1Projective::from(*self)
            .mul_limbs(&[Z_ABS])
            .mul_limbs(&[Z_ABS]);
        let phi = G1Projective {
            x: self.x.mul(beta),
            y: self.y,
            z: Fp::ONE,
        };
        phi == z2p.neg()
    }

    /// The definitional subgroup test `[r]P == O`, kept as the oracle
    /// [`G1Affine::is_torsion_free`] is tested against.
    #[cfg(test)]
    fn is_torsion_free_by_order(&self) -> bool {
        G1Projective::from(*self)
            .mul_limbs(&Fr::MODULUS)
            .is_identity()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
        }
    }

    /// Compressed encoding: 48 bytes, big-endian `x` with flag bits in the
    /// top three bits of the first byte (`0x80` = compressed, `0x40` =
    /// infinity, `0x20` = `y` odd). Self-consistent within this workspace.
    pub fn to_compressed(&self) -> [u8; 48] {
        if self.infinity {
            let mut out = [0u8; 48];
            out[0] = 0x80 | 0x40;
            return out;
        }
        let mut out = self.x.to_bytes_be();
        debug_assert_eq!(out[0] & 0xe0, 0, "x fits in 381 bits");
        out[0] |= 0x80;
        if self.y.is_odd() {
            out[0] |= 0x20;
        }
        out
    }

    /// Decodes a compressed point, enforcing canonical field encoding,
    /// curve membership, and r-torsion membership.
    pub fn from_compressed(bytes: &[u8; 48]) -> Option<Self> {
        let flags = bytes[0] & 0xe0;
        if flags & 0x80 == 0 {
            return None; // not marked compressed
        }
        if flags & 0x40 != 0 {
            // Infinity must have an all-zero body.
            let mut body = *bytes;
            body[0] &= 0x1f;
            if body.iter().any(|&b| b != 0) {
                return None;
            }
            return Some(Self::identity());
        }
        let mut xb = *bytes;
        xb[0] &= 0x1f;
        let x = Fp::from_bytes_be(&xb)?;
        let y2 = x.square().mul(&x).add(&Fp::from_u64(4));
        let mut y = y2.sqrt()?;
        if y.is_odd() != (flags & 0x20 != 0) {
            y = y.neg();
        }
        let point = Self {
            x,
            y,
            infinity: false,
        };
        if point.is_torsion_free() {
            Some(point)
        } else {
            None
        }
    }
}

impl From<G1Affine> for G1Projective {
    fn from(p: G1Affine) -> Self {
        if p.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: p.x,
                y: p.y,
                z: Fp::ONE,
            }
        }
    }
}

impl From<G1Projective> for G1Affine {
    fn from(p: G1Projective) -> Self {
        p.to_affine()
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1, Y1, Z1) ~ (X2, Y2, Z2) iff X1 Z2² == X2 Z1² and Y1 Z2³ == Y2 Z1³.
        let self_inf = self.is_identity();
        let other_inf = other.is_identity();
        if self_inf || other_inf {
            return self_inf == other_inf;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x.mul(&z2z2) == other.x.mul(&z1z1)
            && self.y.mul(&z2z2.mul(&other.z)) == other.y.mul(&z1z1.mul(&self.z))
    }
}
impl Eq for G1Projective {}

impl G1Projective {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp::ZERO,
            y: Fp::ZERO,
            z: Fp::ZERO,
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        G1Affine::generator().into()
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        G1Affine {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv2.mul(&z_inv)),
            infinity: false,
        }
    }

    /// Point doubling (Jacobian, a = 0).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let c8 = c.double().double().double();
        let y3 = e.mul(&d.sub(&x3)).sub(&c8);
        let z3 = self.y.mul(&self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (Jacobian).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point.
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        self.add(&G1Projective::from(*rhs))
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication by a field scalar.
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        self.mul_limbs(&k.to_canonical_limbs())
    }

    /// Scalar multiplication by an arbitrary little-endian limb integer
    /// (used for cofactor clearing and torsion checks).
    pub fn mul_limbs(&self, k: &[u64]) -> Self {
        let mut acc = Self::identity();
        let nbits = k.len() * 64;
        for i in (0..nbits).rev() {
            acc = acc.double();
            if (k[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `Σ kᵢ·Pᵢ` by windowed Straus multiplication (Shamir's trick for
    /// many terms): one shared chain of doublings, four bits per window,
    /// and per term a table `[P, 2P, …, dP]` up to its largest window
    /// digit `d ≤ 15`, allocated for this call. A term whose scalar is
    /// below 16 thus costs a single addition. Scalars are little-endian
    /// 256-bit integers (`Fr` canonical limbs, or a smaller value
    /// zero-extended). Variable time.
    pub(crate) fn multi_mul(terms: &[(G1Projective, [u64; 4])]) -> Self {
        const WINDOW: usize = 4;
        const MASK: u64 = (1 << WINDOW) - 1;
        let digit = |k: &[u64; 4], w: usize| {
            let bit = w * WINDOW;
            ((k[bit / 64] >> (bit % 64)) & MASK) as usize
        };
        let windows = terms
            .iter()
            .map(|(_, k)| limbs::bit_length(k).div_ceil(WINDOW))
            .max()
            .unwrap_or(0);
        let tables: Vec<Vec<G1Projective>> = terms
            .iter()
            .map(|(p, k)| {
                let top = (0..windows).map(|w| digit(k, w)).max().unwrap_or(0);
                let mut table = Vec::with_capacity(top);
                if top >= 1 {
                    table.push(*p);
                }
                if top >= 2 {
                    table.push(p.double());
                }
                while table.len() < top {
                    let next = table[table.len() - 1].add(p);
                    table.push(next);
                }
                table
            })
            .collect();
        let mut acc = Self::identity();
        for w in (0..windows).rev() {
            for _ in 0..WINDOW {
                acc = acc.double();
            }
            for ((_, k), table) in terms.iter().zip(&tables) {
                let d = digit(k, w);
                if d != 0 {
                    acc = acc.add(&table[d - 1]);
                }
            }
        }
        acc
    }

    /// Multiplies by the G1 cofactor, mapping any curve point into the
    /// order-`r` subgroup.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_limbs(&COFACTOR)
    }

    /// Samples a random subgroup element (generator times random scalar).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Fr::random(rng))
    }
}

/// Hashes an arbitrary message to G1 with domain separation, using
/// try-and-increment followed by cofactor clearing.
///
/// **Not constant time**: the iteration count leaks information about the
/// (public) message. Do not use for secret inputs. Standards-track
/// deployments should use SSWU (RFC 9380); try-and-increment is used here
/// because it needs nothing beyond an `Fp` square root.
pub fn hash_to_g1(msg: &[u8], dst: &[u8]) -> G1Projective {
    for ctr in 0u16..=1024 {
        let ctr_bytes = ctr.to_be_bytes();
        let h1 = sha256_many(&[b"distrust/htc/1/", dst, &ctr_bytes, msg]);
        let h2 = sha256_many(&[b"distrust/htc/2/", dst, &ctr_bytes, msg]);
        let mut xb = [0u8; 48];
        xb[..32].copy_from_slice(&h1);
        xb[32..].copy_from_slice(&h2[..16]);
        xb[0] &= 0x1f; // < 2^381
        let Some(x) = Fp::from_bytes_be(&xb) else {
            continue;
        };
        let y2 = x.square().mul(&x).add(&Fp::from_u64(4));
        let Some(mut y) = y2.sqrt() else {
            continue;
        };
        if (h2[16] & 1 == 1) != y.is_odd() {
            y = y.neg();
        }
        let point = G1Projective { x, y, z: Fp::ONE };
        debug_assert!(point.to_affine().is_on_curve());
        let cleared = point.clear_cofactor();
        if !cleared.is_identity() {
            return cleared;
        }
    }
    unreachable!("hash_to_g1 failed 1024 consecutive times (p ≈ 2^-1024)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    #[test]
    fn generator_on_curve_and_torsion_free() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
    }

    #[test]
    fn identity_laws() {
        let g = G1Projective::generator();
        let id = G1Projective::identity();
        assert_eq!(g.add(&id), g);
        assert_eq!(id.add(&g), g);
        assert_eq!(id.double(), id);
        assert!(g.add(&g.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g.add(&g));
        let g4 = g.double().double();
        assert_eq!(g4, g.add(&g).add(&g).add(&g));
    }

    #[test]
    fn scalar_mul_small() {
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&Fr::from_u64(1)), g);
        assert_eq!(g.mul_scalar(&Fr::from_u64(2)), g.double());
        assert_eq!(g.mul_scalar(&Fr::from_u64(5)), g.double().double().add(&g));
        assert!(g.mul_scalar(&Fr::ZERO).is_identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = HmacDrbg::new(b"g1", b"distribute");
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let lhs = g.mul_scalar(&a.add(&b));
        let rhs = g.mul_scalar(&a).add(&g.mul_scalar(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn order_annihilates_generator() {
        let g = G1Projective::generator();
        assert!(g.mul_limbs(&Fr::MODULUS).is_identity());
    }

    /// An on-curve point whose x-coordinate is hashed from `seed` — with
    /// overwhelming probability outside G1 (the cofactor is ~2¹²⁶).
    fn curve_point(seed: &[u8]) -> Option<G1Affine> {
        let mut xb = [0u8; 48];
        xb[..32].copy_from_slice(&sha256_many(&[b"g1 test x/1", seed]));
        xb[32..].copy_from_slice(&sha256_many(&[b"g1 test x/2", seed])[..16]);
        xb[0] &= 0x1f;
        let x = Fp::from_bytes_be(&xb)?;
        let y = x.square().mul(&x).add(&Fp::from_u64(4)).sqrt()?;
        let p = G1Affine {
            x,
            y,
            infinity: false,
        };
        debug_assert!(p.is_on_curve());
        Some(p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn endomorphism_test_matches_order_oracle(seed in any::<[u8; 16]>()) {
            let p = curve_point(&seed);
            prop_assume!(p.is_some());
            let p = p.expect("assumed above");
            prop_assert_eq!(p.is_torsion_free(), p.is_torsion_free_by_order());
            prop_assert_eq!(p.neg().is_torsion_free(), p.neg().is_torsion_free_by_order());
            let cleared = G1Projective::from(p).clear_cofactor().to_affine();
            prop_assert!(cleared.is_torsion_free());
            prop_assert!(cleared.is_torsion_free_by_order());
        }
    }

    #[test]
    fn endomorphism_test_edge_cases() {
        assert!(G1Affine::identity().is_torsion_free());
        assert!(G1Affine::identity().is_torsion_free_by_order());
        // Some hashed x-coordinates must land outside the subgroup, and
        // the endomorphism test must agree with the oracle on each.
        let outside = (0u8..32)
            .filter_map(|i| curve_point(&[i]))
            .filter(|p| !p.is_torsion_free_by_order())
            .inspect(|p| assert!(!p.is_torsion_free()))
            .count();
        assert!(outside > 0, "expected points outside G1");
    }

    #[test]
    fn endomorphism_test_rejects_small_order_components() {
        // h = 3 · 11² · 10177² · 859267² · 52437899². For each prime power
        // ℓᵉ ∥ h, T = [r·h/ℓᵉ]P is O or has ℓ-power order, so T and G + T
        // are points whose only non-G1 component has order ℓ or ℓ².
        let g = G1Projective::generator();
        for (l, e) in [
            (3u64, 1),
            (11, 2),
            (10177, 2),
            (859_267, 2),
            (52_437_899, 2),
        ] {
            let l_e = l.pow(e);
            let h_over = limbs::div_by_u64(&COFACTOR, l_e);
            let t = (0u8..16)
                .filter_map(|i| curve_point(&[b'l', i]))
                .map(|p| {
                    G1Projective::from(p)
                        .mul_limbs(&Fr::MODULUS)
                        .mul_limbs(&h_over)
                })
                .find(|t| !t.is_identity())
                .expect("a point with a nontrivial ℓ-part");
            assert!(t.mul_limbs(&[l_e]).is_identity(), "ℓ-power order, ℓ = {l}");
            for q in [t.to_affine(), g.add(&t).to_affine()] {
                assert!(!q.is_torsion_free_by_order());
                assert!(!q.is_torsion_free(), "ℓ = {l}");
            }
        }
    }

    #[test]
    fn decoding_rejects_points_outside_the_subgroup() {
        let p = (0u8..32)
            .filter_map(|i| curve_point(&[i]))
            .find(|p| !p.is_torsion_free_by_order())
            .expect("a point outside G1");
        assert_eq!(G1Affine::from_compressed(&p.to_compressed()), None);
    }

    #[test]
    fn multi_mul_matches_separate_multiplications() {
        let mut rng = HmacDrbg::new(b"g1", b"multi_mul");
        let mut terms = Vec::new();
        let mut expect = G1Projective::identity();
        for i in 0..5u64 {
            let p = G1Projective::random(&mut rng);
            // Full scalars, small ones (single-entry tables) and zero.
            let k = match i {
                0 => Fr::ZERO,
                1 => Fr::ONE,
                2 => Fr::from_u64(0xf00f),
                _ => Fr::random(&mut rng),
            };
            expect = expect.add(&p.mul_scalar(&k));
            terms.push((p, k.to_canonical_limbs()));
        }
        assert_eq!(G1Projective::multi_mul(&terms), expect);
        assert!(G1Projective::multi_mul(&[]).is_identity());
    }

    #[test]
    fn compressed_round_trip() {
        let mut rng = HmacDrbg::new(b"g1", b"compress");
        for _ in 0..8 {
            let p = G1Projective::random(&mut rng).to_affine();
            let bytes = p.to_compressed();
            let q = G1Affine::from_compressed(&bytes).expect("valid encoding");
            assert_eq!(p, q);
        }
        // Identity round trip.
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compressed_rejects_garbage() {
        // No compression flag.
        assert!(G1Affine::from_compressed(&[0u8; 48]).is_none());
        // Infinity flag with nonzero body.
        let mut bad = [0u8; 48];
        bad[0] = 0xc0;
        bad[47] = 1;
        assert!(G1Affine::from_compressed(&bad).is_none());
        // x not on curve: flip bits until decode fails at the sqrt stage.
        let mut tampered = G1Affine::generator().to_compressed();
        tampered[47] ^= 1;
        // Either decodes to a different valid point or fails; must not
        // return the generator.
        if let Some(p) = G1Affine::from_compressed(&tampered) {
            assert_ne!(p, G1Affine::generator());
        }
    }

    #[test]
    fn hash_to_g1_properties() {
        let p = hash_to_g1(b"message one", b"test-dst");
        let q = hash_to_g1(b"message two", b"test-dst");
        let r = hash_to_g1(b"message one", b"other-dst");
        assert!(p.to_affine().is_on_curve());
        assert!(p.to_affine().is_torsion_free());
        assert_ne!(p, q, "different messages map to different points");
        assert_ne!(p, r, "different DSTs map to different points");
        // Determinism.
        assert_eq!(p, hash_to_g1(b"message one", b"test-dst"));
    }

    #[test]
    fn mixed_add_matches_projective() {
        let mut rng = HmacDrbg::new(b"g1", b"mixed");
        let p = G1Projective::random(&mut rng);
        let q = G1Projective::random(&mut rng);
        assert_eq!(p.add_affine(&q.to_affine()), p.add(&q));
    }
}

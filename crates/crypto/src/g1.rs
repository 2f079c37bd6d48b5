//! `G1` — the order-`r` subgroup of `E(Fp): y² = x³ + 4`.
//!
//! Points use Jacobian projective coordinates internally
//! (`x = X/Z²`, `y = Y/Z³`, infinity encoded as `Z = 0`). Scalar
//! multiplication is variable-time double-and-add; see the side-channel note
//! in [`crate::limbs`].

use crate::fp::Fp;
use crate::fr::Fr;
use crate::sha256::sha256_many;

/// The G1 cofactor `h1 = 0x396c8c005555e1568c00aaab0000aaab`.
pub const COFACTOR: [u64; 2] = [0x8c00_aaab_0000_aaab, 0x396c_8c00_5555_e156];

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

    /// Subgroup membership: `[r]P == O`. Variable time.
    pub fn is_torsion_free(&self) -> bool {
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

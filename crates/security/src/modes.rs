//! Cipher modes: CTR keystream encryption and GCM authenticated
//! encryption with GHASH over GF(2¹²⁸), per NIST SP 800-38D.

use crate::aes::Aes128;
use crate::error::{SecurityError, SecurityResult};

/// Length of the GCM authentication tag in bytes.
pub const TAG_LEN: usize = 16;
/// Required nonce length in bytes (the 96-bit fast path).
pub const NONCE_LEN: usize = 12;

/// Multiplies two elements of GF(2¹²⁸) with the GCM polynomial
/// x¹²⁸ + x⁷ + x² + x + 1 (bit-reflected convention).
fn gf_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= 0xe1 << 120;
        }
    }
    z
}

fn block_to_u128(block: &[u8]) -> u128 {
    let mut padded = [0u8; 16];
    padded[..block.len()].copy_from_slice(block);
    u128::from_be_bytes(padded)
}

/// GHASH over the concatenation of AAD and ciphertext with length block.
fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16) {
        y = gf_mul(y ^ block_to_u128(chunk), h);
    }
    for chunk in ct.chunks(16) {
        y = gf_mul(y ^ block_to_u128(chunk), h);
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf_mul(y ^ lengths, h)
}

/// AES-128 in counter mode (also the keystream generator inside GCM).
#[derive(Debug, Clone)]
pub struct AesCtr {
    cipher: Aes128,
}

impl AesCtr {
    /// Creates a CTR context from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> AesCtr {
        AesCtr { cipher: Aes128::new(key) }
    }

    /// XORs `data` with the keystream for (`nonce`, starting counter
    /// `ctr0`). Encryption and decryption are the same operation.
    pub fn apply(&self, nonce: &[u8; NONCE_LEN], ctr0: u32, data: &mut [u8]) {
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(nonce);
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let ctr = ctr0.wrapping_add(i as u32);
            counter_block[12..].copy_from_slice(&ctr.to_be_bytes());
            let ks = self.cipher.encrypt_block(&counter_block);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// AES-128-GCM authenticated encryption.
#[derive(Debug, Clone)]
pub struct AesGcm {
    cipher: Aes128,
    h: u128,
}

impl AesGcm {
    /// Creates a GCM context from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> AesGcm {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.encrypt_block(&[0u8; 16]));
        AesGcm { cipher, h }
    }

    /// Encrypts `plaintext` and appends the 16-byte tag. `aad` is
    /// authenticated but not encrypted.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let ctr = AesCtr { cipher: self.cipher.clone() };
        let mut out = plaintext.to_vec();
        ctr.apply(nonce, 2, &mut out); // counter 1 is reserved for the tag
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies the tag and decrypts; refuses tampered inputs.
    ///
    /// # Errors
    ///
    /// `SecurityError::TruncatedCiphertext` if `sealed` is shorter than
    /// the tag; `SecurityError::InvalidTag` if authentication fails.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> SecurityResult<Vec<u8>> {
        if sealed.len() < TAG_LEN {
            return Err(SecurityError::TruncatedCiphertext);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(nonce, aad, ct);
        // Constant-time-ish comparison.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(SecurityError::InvalidTag);
        }
        let ctr = AesCtr { cipher: self.cipher.clone() };
        let mut out = ct.to_vec();
        ctr.apply(nonce, 2, &mut out);
        Ok(out)
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = ghash(self.h, aad, ct);
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        let e = u128::from_be_bytes(self.cipher.encrypt_block(&j0));
        (s ^ e).to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn nist_gcm_test_case_1_empty() {
        // Key = 0, IV = 0, empty plaintext/aad: tag must be
        // 58e2fccefa7e3061367f1d57a4e7455a.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(sealed, hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    #[test]
    fn nist_gcm_test_case_2_one_block() {
        // Key = 0, IV = 0, one zero block.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], &[0u8; 16], b"");
        let expected_ct = hex("0388dace60b6a392f328c2b971b2fe78");
        let expected_tag = hex("ab6e47d42cec13bdf53a67b21257bddf");
        assert_eq!(&sealed[..16], &expected_ct[..]);
        assert_eq!(&sealed[16..], &expected_tag[..]);
    }

    #[test]
    fn nist_gcm_test_case_3_four_blocks() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex("d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &pt, b"");
        let expected_ct = hex("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
        let expected_tag = hex("4d5c2af327cd64a62cf35abd2ba6fab4");
        assert_eq!(&sealed[..64], &expected_ct[..]);
        assert_eq!(&sealed[64..], &expected_tag[..]);
        // And decryption round-trips.
        assert_eq!(gcm.open(&nonce, &sealed, b"").unwrap(), pt);
    }

    #[test]
    fn tampering_is_detected() {
        let gcm = AesGcm::new(&[5u8; 16]);
        let nonce = [9u8; 12];
        let mut sealed = gcm.seal(&nonce, b"sensor reading: 42", b"meta");
        sealed[3] ^= 0x01;
        assert_eq!(gcm.open(&nonce, &sealed, b"meta"), Err(SecurityError::InvalidTag));
    }

    #[test]
    fn wrong_aad_is_detected() {
        let gcm = AesGcm::new(&[5u8; 16]);
        let nonce = [9u8; 12];
        let sealed = gcm.seal(&nonce, b"payload", b"header-a");
        assert_eq!(gcm.open(&nonce, &sealed, b"header-b"), Err(SecurityError::InvalidTag));
    }

    #[test]
    fn truncated_input_rejected() {
        let gcm = AesGcm::new(&[5u8; 16]);
        assert_eq!(gcm.open(&[0u8; 12], &[1, 2, 3], b""), Err(SecurityError::TruncatedCiphertext));
    }

    #[test]
    fn ctr_round_trips_odd_lengths() {
        let ctr = AesCtr::new(&[3u8; 16]);
        let nonce = [7u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let original: Vec<u8> = (0..len as u8).collect();
            let mut buf = original.clone();
            ctr.apply(&nonce, 1, &mut buf);
            if len > 0 {
                assert_ne!(buf, original);
            }
            ctr.apply(&nonce, 1, &mut buf);
            assert_eq!(buf, original);
        }
    }

    #[test]
    fn gf_mul_is_commutative() {
        let a = 0x0123456789abcdef_0123456789abcdefu128;
        let b = 0xfedcba9876543210_fedcba9876543210u128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }
}

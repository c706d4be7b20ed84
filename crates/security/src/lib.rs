//! # everest-security — data protection for the EVEREST SDK
//!
//! EVEREST "proposes a data-centric approach for security, dealing with
//! confidentiality, authentication and integrity of the data ... a
//! comprehensive library of optimized accelerators for memory and near
//! memory encryption ... information flow tracking, monitoring, and
//! protection against malicious uses" (paper III-A). This crate provides
//! the software reference implementations those accelerators are generated
//! from:
//!
//! * `aes` — AES-128 block cipher, implemented from the FIPS-197 spec;
//! * [`modes`] — CTR encryption and GCM authenticated encryption
//!   (GHASH over GF(2¹²⁸)), with tamper detection;
//! * [`mod@sha256`] — SHA-256 and HMAC-SHA256 for integrity and
//!   authentication;
//! * `anomaly` — hardware-monitor models (timing, access-pattern, value
//!   range) feeding the "auto-protection" policy engine that reacts to
//!   deviations from expected data behaviour.
//!
//! Information-flow tracking lives with the HLS generator
//! (`everest_hls::dift`), since TaintHLS instruments the datapath itself.
//!
//! ## Example
//!
//! ```
//! use everest_security::modes::AesGcm;
//!
//! let key = [7u8; 16];
//! let gcm = AesGcm::new(&key);
//! let nonce = [1u8; 12];
//! let ct = gcm.seal(&nonce, b"wind farm telemetry", b"header");
//! let pt = gcm.open(&nonce, &ct, b"header").unwrap();
//! assert_eq!(pt, b"wind farm telemetry");
//! ```

pub(crate) mod aes;
pub(crate) mod anomaly;
pub(crate) mod error;
pub mod modes;
pub mod sha256;

pub use aes::Aes128;
pub use anomaly::{AccessMonitor, AutoProtect, ProtectAction, RangeMonitor, TimingMonitor};
pub use error::SecurityError;
pub use sha256::{hmac_sha256, sha256};

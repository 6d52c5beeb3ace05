//! Versioned weight serialization — the `rlplanner.policy/v1` format.
//!
//! A policy file captures every trainable parameter of a network (in
//! [`Layer::visit_parameters`] traversal order, which is deterministic for
//! a fixed architecture) plus a flat string-to-string metadata map the
//! caller uses to record how the weights were produced and which
//! environment/architecture they expect. Loading is fully validated:
//! corrupt, truncated, version-skewed or shape-mismatched files surface a
//! typed [`PolicyError`] — never a panic.
//!
//! # On-disk layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RLPPOL\x01\n"
//! 8       4     format version (u32) — this module writes 1
//! 12      4     dtype (u32) — 0 = f32
//! 16      4     metadata entry count (u32)
//!               per entry: key length (u32), key bytes (UTF-8),
//!                          value length (u32), value bytes (UTF-8)
//! ...     4     tensor count (u32)
//!               per tensor: rank (u32), dims (u32 each),
//!                           element data (f32 LE, row-major)
//! ...     8     FNV-1a 64 checksum of every preceding byte (u64)
//! ```
//!
//! The checksum is the last 8 bytes and covers everything before it, so
//! any single flipped or missing byte is detected before weights are
//! applied. [`PolicyFile::checksum`] exposes the same value so reports can
//! record which exact weights a run used.
//!
//! A [`PolicyFile`] is an immutable snapshot: its checksum is computed
//! once, when the snapshot is built ([`PolicyFile::new`] hashes the
//! serialized body, [`PolicyFile::from_bytes`] keeps the trailer it just
//! verified), so reading it back is free however often a server solves
//! with the same file. The same pass records whether every parameter is
//! finite; [`PolicyFile::check_finite`] reports the first one that is not.
//!
//! # Examples
//!
//! ```
//! use rlp_nn::layers::{Linear, ReLU, Sequential};
//! use rlp_nn::policy::PolicyFile;
//!
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 8, 1));
//! net.push(ReLU::new());
//! net.push(Linear::new(8, 2, 2));
//!
//! // Snapshot → bytes → restore into a freshly-initialised clone.
//! let snapshot = PolicyFile::from_layer(&mut net, vec![("note".into(), "demo".into())]);
//! let bytes = snapshot.to_bytes();
//! let restored = PolicyFile::from_bytes(&bytes).unwrap();
//! let mut fresh = Sequential::new();
//! fresh.push(Linear::new(4, 8, 99));
//! fresh.push(ReLU::new());
//! fresh.push(Linear::new(8, 2, 98));
//! restored.apply_to(&mut fresh).unwrap();
//! assert_eq!(restored.metadata_value("note"), Some("demo"));
//! ```

use crate::layers::Sequential;
use crate::{Layer, Tensor};
use std::fmt;
use std::path::Path;

/// Identifier of the policy-file layout produced by this module.
pub const POLICY_SCHEMA: &str = "rlplanner.policy/v1";

/// Magic bytes opening every policy file.
pub const POLICY_MAGIC: [u8; 8] = *b"RLPPOL\x01\n";

/// Format version this module reads and writes.
pub const POLICY_VERSION: u32 = 1;

/// Dtype tag for `f32` element data (the only dtype version 1 defines).
pub const DTYPE_F32: u32 = 0;

/// Guard against absurd counts in corrupt headers: no real policy in this
/// workspace has more than a few dozen tensors or metadata entries, and a
/// bogus length prefix must not drive a multi-gigabyte allocation.
const MAX_REASONABLE_COUNT: u32 = 1 << 20;

/// A typed error loading, validating or applying a policy file.
///
/// `Clone + PartialEq` so it can ride inside planner errors that cross
/// thread and wire boundaries; I/O failures carry the rendered OS error
/// string for the same reason.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PolicyError {
    /// Reading or writing the file failed at the OS level.
    Io(String),
    /// The file does not start with [`POLICY_MAGIC`] — not a policy file.
    BadMagic,
    /// The file ended before the declared content did.
    Truncated,
    /// Extra bytes follow the checksum.
    TrailingBytes(usize),
    /// The format version is not [`POLICY_VERSION`].
    UnsupportedVersion(u32),
    /// The dtype tag is not [`DTYPE_F32`].
    UnsupportedDtype(u32),
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file contents.
        computed: u64,
    },
    /// A length or count field is implausibly large (corrupt header).
    CorruptLength(u64),
    /// A metadata key or value is not valid UTF-8.
    InvalidUtf8,
    /// The file holds a different number of tensors than the target
    /// network has parameters.
    TensorCountMismatch {
        /// Tensors in the file.
        file: usize,
        /// Parameters in the target network.
        network: usize,
    },
    /// Tensor `index` has a different shape than the target parameter.
    ShapeMismatch {
        /// Position in [`Layer::visit_parameters`] traversal order.
        index: usize,
        /// Shape stored in the file.
        file: Vec<usize>,
        /// Shape of the target parameter.
        network: Vec<usize>,
    },
    /// Required metadata is missing or malformed (the caller's contract,
    /// e.g. an environment-geometry key the planner needs).
    Metadata(String),
    /// A parameter is NaN or infinite, so no network can run on the file.
    NonFinite {
        /// Tensor position in [`Layer::visit_parameters`] traversal order.
        tensor: usize,
        /// Flat row-major element index within that tensor.
        element: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Io(e) => write!(f, "policy file I/O failed: {e}"),
            PolicyError::BadMagic => write!(f, "not a policy file (bad magic)"),
            PolicyError::Truncated => write!(f, "policy file is truncated"),
            PolicyError::TrailingBytes(n) => {
                write!(f, "policy file has {n} trailing byte(s) after the checksum")
            }
            PolicyError::UnsupportedVersion(v) => {
                write!(f, "unsupported policy format version {v} (expected {POLICY_VERSION})")
            }
            PolicyError::UnsupportedDtype(d) => {
                write!(f, "unsupported policy dtype tag {d} (expected {DTYPE_F32} = f32)")
            }
            PolicyError::ChecksumMismatch { stored, computed } => write!(
                f,
                "policy checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            PolicyError::CorruptLength(n) => {
                write!(f, "policy file declares an implausible length ({n})")
            }
            PolicyError::InvalidUtf8 => write!(f, "policy metadata is not valid UTF-8"),
            PolicyError::TensorCountMismatch { file, network } => write!(
                f,
                "policy holds {file} tensor(s) but the network has {network} parameter(s)"
            ),
            PolicyError::ShapeMismatch {
                index,
                file,
                network,
            } => write!(
                f,
                "policy tensor {index} has shape {file:?} but the network parameter has shape {network:?}"
            ),
            PolicyError::Metadata(reason) => write!(f, "policy metadata invalid: {reason}"),
            PolicyError::NonFinite { tensor, element } => write!(
                f,
                "policy tensor {tensor} holds a non-finite value at element {element}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

/// FNV-1a 64-bit over a byte slice — the policy checksum function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// An immutable in-memory policy snapshot: ordered metadata plus one
/// tensor per network parameter, in [`Layer::visit_parameters`] traversal
/// order, with the checksum of its serialized form computed once at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyFile {
    metadata: Vec<(String, String)>,
    tensors: Vec<Tensor>,
    checksum: u64,
    /// `(tensor, element)` of the first non-finite parameter, if any.
    non_finite: Option<(usize, usize)>,
}

impl PolicyFile {
    /// Builds a snapshot from metadata (serialized in this order) and
    /// parameter tensors (in traversal order), hashing it once.
    pub fn new(metadata: Vec<(String, String)>, tensors: Vec<Tensor>) -> Self {
        let checksum = fnv1a(&body_bytes(&metadata, &tensors));
        Self::with_checksum(metadata, tensors, checksum)
    }

    fn with_checksum(metadata: Vec<(String, String)>, tensors: Vec<Tensor>, checksum: u64) -> Self {
        let non_finite = tensors.iter().enumerate().find_map(|(tensor, t)| {
            let element = t.data().iter().position(|v| !v.is_finite())?;
            Some((tensor, element))
        });
        Self {
            metadata,
            tensors,
            checksum,
            non_finite,
        }
    }

    /// Snapshots every parameter of a network.
    pub fn from_layer(layer: &mut dyn Layer, metadata: Vec<(String, String)>) -> Self {
        let mut tensors = Vec::new();
        layer.visit_parameters(&mut |p| tensors.push(p.value.clone()));
        Self::new(metadata, tensors)
    }

    /// Flat string metadata, in serialization order.
    pub fn metadata(&self) -> &[(String, String)] {
        &self.metadata
    }

    /// Parameter tensors, in [`Layer::visit_parameters`] traversal order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Checks that every parameter is finite — a field read; the scan ran
    /// when the snapshot was built.
    ///
    /// # Errors
    ///
    /// [`PolicyError::NonFinite`] naming the first NaN or infinite
    /// parameter. [`PolicyFile::from_bytes`] accepts any bit pattern, so
    /// whoever runs a network on the file checks this first.
    pub fn check_finite(&self) -> Result<(), PolicyError> {
        match self.non_finite {
            None => Ok(()),
            Some((tensor, element)) => Err(PolicyError::NonFinite { tensor, element }),
        }
    }

    /// Looks up a metadata value by key (first match wins).
    pub fn metadata_value(&self, key: &str) -> Option<&str> {
        self.metadata
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Copies the snapshot's tensors into a network's parameters.
    ///
    /// # Errors
    ///
    /// [`PolicyError::TensorCountMismatch`] / [`PolicyError::ShapeMismatch`]
    /// when the snapshot does not fit the network, and
    /// [`PolicyError::NonFinite`] when a parameter is NaN or infinite. The
    /// network is not modified unless every shape matches.
    pub fn apply_to(&self, layer: &mut dyn Layer) -> Result<(), PolicyError> {
        self.check_finite()?;
        // Validate the full shape list before touching any parameter, so a
        // mismatch never leaves the network half-loaded.
        let mut shapes = Vec::new();
        layer.visit_parameters(&mut |p| shapes.push(p.value.shape().to_vec()));
        if shapes.len() != self.tensors.len() {
            return Err(PolicyError::TensorCountMismatch {
                file: self.tensors.len(),
                network: shapes.len(),
            });
        }
        for (index, (tensor, shape)) in self.tensors.iter().zip(&shapes).enumerate() {
            if tensor.shape() != shape.as_slice() {
                return Err(PolicyError::ShapeMismatch {
                    index,
                    file: tensor.shape().to_vec(),
                    network: shape.clone(),
                });
            }
        }
        let mut index = 0;
        layer.visit_parameters(&mut |p| {
            p.value = self.tensors[index].clone();
            p.grad = Tensor::zeros(self.tensors[index].shape().to_vec());
            index += 1;
        });
        Ok(())
    }

    /// Serializes the snapshot into the documented byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = body_bytes(&self.metadata, &self.tensors);
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// The FNV-1a 64 checksum of the serialized snapshot — the value
    /// written in (and verified against) the file's trailing 8 bytes.
    /// Computed when the snapshot was built, so this is a field read.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Parses and validates a serialized snapshot.
    ///
    /// # Errors
    ///
    /// Any structural problem — wrong magic, unsupported version/dtype,
    /// truncation, trailing garbage, checksum mismatch, implausible length
    /// fields, non-UTF-8 metadata — returns the matching [`PolicyError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PolicyError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != POLICY_MAGIC {
            return Err(PolicyError::BadMagic);
        }
        let version = r.u32()?;
        if version != POLICY_VERSION {
            return Err(PolicyError::UnsupportedVersion(version));
        }
        let dtype = r.u32()?;
        if dtype != DTYPE_F32 {
            return Err(PolicyError::UnsupportedDtype(dtype));
        }
        let metadata_count = r.count()?;
        let mut metadata = Vec::with_capacity(metadata_count as usize);
        for _ in 0..metadata_count {
            let key = r.string()?;
            let value = r.string()?;
            metadata.push((key, value));
        }
        let tensor_count = r.count()?;
        let mut tensors = Vec::with_capacity(tensor_count as usize);
        for _ in 0..tensor_count {
            let rank = r.count()?;
            let mut shape = Vec::with_capacity(rank as usize);
            let mut len: u64 = 1;
            for _ in 0..rank {
                let dim = r.count()?;
                len = len.saturating_mul(u64::from(dim));
                shape.push(dim as usize);
            }
            if len > u64::from(MAX_REASONABLE_COUNT) * 64 {
                return Err(PolicyError::CorruptLength(len));
            }
            let raw = r.take(len as usize * 4)?;
            let data = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            tensors.push(Tensor::from_vec(data, shape));
        }
        let body_end = r.pos;
        let stored = r.u64()?;
        if r.pos != bytes.len() {
            return Err(PolicyError::TrailingBytes(bytes.len() - r.pos));
        }
        let computed = fnv1a(&bytes[..body_end]);
        if stored != computed {
            return Err(PolicyError::ChecksumMismatch { stored, computed });
        }
        Ok(Self::with_checksum(metadata, tensors, stored))
    }

    /// Writes the snapshot to a file.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlp_nn::policy::PolicyFile;
    /// use rlp_nn::Tensor;
    ///
    /// let file = PolicyFile::new(
    ///     vec![("note".into(), "demo".into())],
    ///     vec![Tensor::from_vec(vec![1.0, 2.0], vec![2])],
    /// );
    /// let path = std::env::temp_dir()
    ///     .join(format!("rlp-nn-doc-{}.policy", std::process::id()));
    /// file.save(&path)?;
    /// let restored = PolicyFile::load(&path)?;
    /// assert_eq!(restored.checksum(), file.checksum());
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), rlp_nn::policy::PolicyError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`PolicyError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PolicyError> {
        std::fs::write(path.as_ref(), self.to_bytes()).map_err(|e| PolicyError::Io(e.to_string()))
    }

    /// Reads and validates a snapshot from a file.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Io`] when the file cannot be read, or any
    /// [`PolicyFile::from_bytes`] error when it can but is invalid.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PolicyError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| PolicyError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

/// Every serialized byte of a snapshot before the checksum trailer.
fn body_bytes(metadata: &[(String, String)], tensors: &[Tensor]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&POLICY_MAGIC);
    out.extend_from_slice(&POLICY_VERSION.to_le_bytes());
    out.extend_from_slice(&DTYPE_F32.to_le_bytes());
    out.extend_from_slice(&(metadata.len() as u32).to_le_bytes());
    for (key, value) in metadata {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value.as_bytes());
    }
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for tensor in tensors {
        out.extend_from_slice(&(tensor.shape().len() as u32).to_le_bytes());
        for &dim in tensor.shape() {
            out.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        for &v in tensor.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Bounds-checked little-endian cursor over a policy byte stream.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PolicyError> {
        let end = self.pos.checked_add(n).ok_or(PolicyError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PolicyError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, PolicyError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PolicyError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A count/length field, rejected when implausibly large so corrupt
    /// headers cannot drive huge allocations.
    fn count(&mut self) -> Result<u32, PolicyError> {
        let n = self.u32()?;
        if n > MAX_REASONABLE_COUNT {
            return Err(PolicyError::CorruptLength(u64::from(n)));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, PolicyError> {
        let len = self.count()?;
        let raw = self.take(len as usize)?;
        String::from_utf8(raw.to_vec()).map_err(|_| PolicyError::InvalidUtf8)
    }
}

impl Sequential {
    /// Saves this network's parameters as a `rlplanner.policy/v1` file.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Io`] when the file cannot be written.
    pub fn save_policy(
        &mut self,
        path: impl AsRef<Path>,
        metadata: Vec<(String, String)>,
    ) -> Result<PolicyFile, PolicyError> {
        let file = PolicyFile::from_layer(self, metadata);
        file.save(path)?;
        Ok(file)
    }

    /// Loads a `rlplanner.policy/v1` file into this network's parameters.
    ///
    /// Returns the parsed file (metadata included) on success.
    ///
    /// # Errors
    ///
    /// Any [`PolicyError`]: unreadable, corrupt, truncated, version-skewed
    /// or shape-mismatched files leave the network untouched.
    pub fn load_policy(&mut self, path: impl AsRef<Path>) -> Result<PolicyFile, PolicyError> {
        let file = PolicyFile::load(path)?;
        file.apply_to(self)?;
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};

    fn demo_net(seed: u64) -> Sequential {
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, seed));
        net.push(ReLU::new());
        net.push(Linear::new(5, 2, seed + 1));
        net
    }

    fn params(net: &mut Sequential) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_parameters(&mut |p| out.push(p.value.data().to_vec()));
        out
    }

    #[test]
    fn bytes_round_trip_bit_identically() {
        let mut net = demo_net(7);
        let file = PolicyFile::from_layer(&mut net, vec![("schema".into(), POLICY_SCHEMA.into())]);
        let bytes = file.to_bytes();
        let parsed = PolicyFile::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, file);
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.checksum(), file.checksum());
    }

    #[test]
    fn apply_restores_the_exact_parameters() {
        let mut trained = demo_net(1);
        let file = PolicyFile::from_layer(&mut trained, Vec::new());
        let mut fresh = demo_net(999);
        assert_ne!(params(&mut trained), params(&mut fresh));
        file.apply_to(&mut fresh).unwrap();
        assert_eq!(params(&mut trained), params(&mut fresh));
    }

    #[test]
    fn truncated_files_error_without_panicking() {
        let mut net = demo_net(3);
        let bytes = PolicyFile::from_layer(&mut net, vec![("k".into(), "v".into())]).to_bytes();
        // Every possible truncation point is a typed error, never a panic.
        for end in 0..bytes.len() {
            let err = PolicyFile::from_bytes(&bytes[..end]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PolicyError::Truncated
                        | PolicyError::BadMagic
                        | PolicyError::ChecksumMismatch { .. }
                ),
                "truncation at {end} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let mut net = demo_net(4);
        let bytes = PolicyFile::from_layer(&mut net, vec![("a".into(), "b".into())]).to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                PolicyFile::from_bytes(&corrupt).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_and_dtype_are_typed_errors() {
        let mut net = demo_net(5);
        let bytes = PolicyFile::from_layer(&mut net, Vec::new()).to_bytes();
        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&2u32.to_le_bytes());
        // The checksum is checked last, so a re-checksummed file still
        // surfaces the version error.
        let split = wrong_version.len() - 8;
        let fixed = fnv1a(&wrong_version[..split]);
        wrong_version[split..].copy_from_slice(&fixed.to_le_bytes());
        assert_eq!(
            PolicyFile::from_bytes(&wrong_version).unwrap_err(),
            PolicyError::UnsupportedVersion(2)
        );

        let mut wrong_dtype = bytes;
        wrong_dtype[12..16].copy_from_slice(&7u32.to_le_bytes());
        let split = wrong_dtype.len() - 8;
        let fixed = fnv1a(&wrong_dtype[..split]);
        wrong_dtype[split..].copy_from_slice(&fixed.to_le_bytes());
        assert_eq!(
            PolicyFile::from_bytes(&wrong_dtype).unwrap_err(),
            PolicyError::UnsupportedDtype(7)
        );
    }

    #[test]
    fn bad_magic_and_trailing_bytes_are_typed_errors() {
        assert_eq!(
            PolicyFile::from_bytes(b"not a policy").unwrap_err(),
            PolicyError::BadMagic
        );
        let mut net = demo_net(6);
        let mut bytes = PolicyFile::from_layer(&mut net, Vec::new()).to_bytes();
        bytes.push(0);
        assert_eq!(
            PolicyFile::from_bytes(&bytes).unwrap_err(),
            PolicyError::TrailingBytes(1)
        );
    }

    #[test]
    fn shape_and_count_mismatches_leave_the_network_untouched() {
        let mut small = demo_net(1);
        let file = PolicyFile::from_layer(&mut small, Vec::new());
        // A different architecture: same parameter count, different shapes.
        let mut other = Sequential::new();
        other.push(Linear::new(4, 4, 0));
        other.push(Linear::new(4, 3, 1));
        let before = params(&mut other);
        let err = file.apply_to(&mut other).unwrap_err();
        assert!(matches!(err, PolicyError::ShapeMismatch { index: 0, .. }));
        assert_eq!(params(&mut other), before, "failed load modified weights");

        let mut deeper = Sequential::new();
        deeper.push(Linear::new(3, 5, 0));
        let err = file.apply_to(&mut deeper).unwrap_err();
        assert_eq!(
            err,
            PolicyError::TensorCountMismatch {
                file: 4,
                network: 2
            }
        );
    }

    #[test]
    fn corrupt_length_fields_do_not_allocate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&POLICY_MAGIC);
        bytes.extend_from_slice(&POLICY_VERSION.to_le_bytes());
        bytes.extend_from_slice(&DTYPE_F32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // metadata count
        assert!(matches!(
            PolicyFile::from_bytes(&bytes).unwrap_err(),
            PolicyError::CorruptLength(_)
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_a_real_file() {
        let path =
            std::env::temp_dir().join(format!("rlp_nn_policy_test_{}.policy", std::process::id()));
        let mut net = demo_net(11);
        let saved = net
            .save_policy(&path, vec![("env.grid".into(), "16x16".into())])
            .unwrap();
        let mut fresh = demo_net(500);
        let loaded = fresh.load_policy(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, saved);
        assert_eq!(params(&mut net), params(&mut fresh));
        assert_eq!(loaded.metadata_value("env.grid"), Some("16x16"));
    }

    #[test]
    fn checksum_is_the_hash_of_the_serialized_body() {
        let mut net = demo_net(8);
        let file = PolicyFile::from_layer(&mut net, vec![("k".into(), "v".into())]);
        let bytes = file.to_bytes();
        let split = bytes.len() - 8;
        assert_eq!(file.checksum(), fnv1a(&bytes[..split]));
        assert_eq!(bytes[split..], file.checksum().to_le_bytes());
    }

    #[test]
    fn non_finite_parameters_parse_but_fail_the_finite_check() {
        let mut net = demo_net(9);
        let clean = PolicyFile::from_layer(&mut net, Vec::new());
        assert_eq!(clean.check_finite(), Ok(()));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut tensors = clean.tensors().to_vec();
            tensors[2].data_mut()[3] = bad;
            let file = PolicyFile::new(Vec::new(), tensors);
            // Any bit pattern parses; the finite check names the element.
            let parsed = PolicyFile::from_bytes(&file.to_bytes()).unwrap();
            let expected = PolicyError::NonFinite {
                tensor: 2,
                element: 3,
            };
            assert_eq!(parsed.check_finite(), Err(expected.clone()));
            let mut target = demo_net(10);
            let before = params(&mut target);
            assert_eq!(parsed.apply_to(&mut target), Err(expected));
            assert_eq!(params(&mut target), before, "failed load modified weights");
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = PolicyFile::load("/nonexistent/policy/path.bin").unwrap_err();
        assert!(matches!(err, PolicyError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}

//! Binary session-checkpoint codec (the `PPCK` format).
//!
//! [`crate::session::AlsSession::park_to_disk`] snapshots a session's
//! complete sweep-to-sweep state — config, factors with their
//! version counters, Gram matrices, PP regime state, the dimension-tree
//! engine's intermediate cache, kernel stats, and the fitness trace — so
//! [`crate::session::AlsSession::resume_from_disk`] can continue the run
//! **bit-identically**: the cache must travel with the factors, or the
//! first post-restore sweep would recontract intermediates the
//! uninterrupted run reused.
//!
//! Layout: `b"PPCK"` magic, a `u32` format version, the payload length,
//! an FNV-1a-64 checksum of the payload, then the payload. All integers
//! are little-endian; floats are stored as raw IEEE-754 bits (exact
//! round-trip, including NaN fitness placeholders). The input tensor is
//! deliberately *not* stored — datasets are rebuilt deterministically from
//! their specs — but its FNV hash is, and resume refuses a tensor whose
//! bytes do not match.

use crate::result::{SweepKind, SweepRecord};
use pp_dtree::{Intermediate, KernelStats, Payload};
use pp_tensor::{DenseTensor, Matrix, SemiSparseTensor, Shape};
use std::sync::Arc;

pub(crate) const MAGIC: [u8; 4] = *b"PPCK";
/// Format 2 added the representation tag to cached intermediates (dense
/// vs semi-sparse) and the semi-sparse kernel counters to the stats block.
/// Format 3 dropped the speculation config flag and the three
/// speculation counters.
pub(crate) const VERSION: u32 = 3;

/// FNV-1a 64-bit over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit fingerprint of a tensor (dims then element bits).
pub fn tensor_fingerprint(t: &DenseTensor) -> u64 {
    let mut w = Writer::new();
    w.usize_(t.order());
    for &d in t.shape().dims() {
        w.usize_(d);
    }
    for &x in t.data() {
        w.f64_(x);
    }
    fnv1a(&w.buf)
}

/// FNV-1a 64-bit fingerprint of a sparse tensor (dims, nnz, sorted
/// coordinates, value bits). Domain-separated from the dense fingerprint
/// by a leading tag so a sparse tensor can never collide with the dense
/// tensor it densifies to.
pub fn sparse_fingerprint(t: &pp_tensor::sparse::SparseTensor) -> u64 {
    let mut w = Writer::new();
    w.u64_(u64::from_le_bytes(*b"PPSPARSE"));
    w.usize_(t.order());
    for &d in t.dims() {
        w.usize_(d);
    }
    w.usize_(t.nnz());
    for &i in t.inds() {
        w.u64_(i as u64);
    }
    for &x in t.vals() {
        w.f64_(x);
    }
    fnv1a(&w.buf)
}

/// Little-endian payload builder.
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn u8_(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool_(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u64_(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize_(&mut self, v: usize) {
        self.u64_(v as u64);
    }

    pub(crate) fn f64_(&mut self, v: f64) {
        self.u64_(v.to_bits());
    }

    pub(crate) fn matrix(&mut self, m: &Matrix) {
        self.usize_(m.rows());
        self.usize_(m.cols());
        for &x in m.data() {
            self.f64_(x);
        }
    }

    pub(crate) fn matrices(&mut self, ms: &[Matrix]) {
        self.usize_(ms.len());
        for m in ms {
            self.matrix(m);
        }
    }

    pub(crate) fn tensor(&mut self, t: &DenseTensor) {
        self.usize_(t.order());
        for &d in t.shape().dims() {
            self.usize_(d);
        }
        for &x in t.data() {
            self.f64_(x);
        }
    }

    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.usize_(vs.len());
        for &v in vs {
            self.u64_(v);
        }
    }

    pub(crate) fn usizes(&mut self, vs: &[usize]) {
        self.usize_(vs.len());
        for &v in vs {
            self.usize_(v);
        }
    }

    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize_(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.usize_(vs.len());
        for &v in vs {
            self.f64_(v);
        }
    }

    pub(crate) fn intermediate(&mut self, e: &Intermediate) {
        self.usizes(&e.mode_order);
        self.u64s(&e.versions);
        // Representation tag: 0 = dense, 1 = semi-sparse.
        match &e.payload {
            Payload::Dense(t) => {
                self.u8_(0);
                self.tensor(t);
            }
            Payload::SemiSparse(ss) => {
                self.u8_(1);
                self.usizes(ss.dims());
                self.usize_(ss.rank());
                self.u32s(ss.inds());
                self.f64s(ss.panels());
            }
        }
    }

    pub(crate) fn stats(&mut self, s: &KernelStats) {
        self.f64_(s.ttm_secs);
        self.f64_(s.mttv_secs);
        self.f64_(s.hadamard_secs);
        self.f64_(s.solve_secs);
        self.f64_(s.transpose_secs);
        self.f64_(s.other_secs);
        self.u64_(s.ttm_flops);
        self.u64_(s.mttv_flops);
        self.u64_(s.ttm_count);
        self.u64_(s.mttv_count);
        self.u64_(s.transpose_count);
        self.u64_(s.gemm_packed_flops);
        self.u64_(s.gemm_fixed_n_calls);
        self.u64_(s.gemm_generic_calls);
        self.u64_(s.sparse_mttkrp_flops);
        self.u64_(s.sparse_fibers_visited);
        self.u64_(s.semisparse_ttm_flops);
        self.u64_(s.semisparse_ttv_flops);
        self.u64_(s.semisparse_entries_visited);
    }

    /// Length-prefixed opaque byte blob — lets one checkpoint nest another
    /// complete frame (a streaming session wraps its inner ALS session's
    /// checkpoint this way, so the inner codec stays a black box).
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize_(b.len());
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn sweep(&mut self, r: &SweepRecord) {
        self.u8_(match r.kind {
            SweepKind::Exact => 0,
            SweepKind::PpInit => 1,
            SweepKind::PpApprox => 2,
        });
        self.f64_(r.secs);
        self.f64_(r.fitness);
        self.f64_(r.cumulative_secs);
    }

    /// Frame the accumulated payload: magic, version, length, checksum.
    pub(crate) fn frame(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Checked little-endian payload reader.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verify the frame (magic, version, length, checksum) and position
    /// the reader at the payload start.
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, String> {
        if bytes.len() < 24 {
            return Err("checkpoint truncated: missing header".into());
        }
        if bytes[..4] != MAGIC {
            return Err("not a PPCK checkpoint (bad magic)".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            ));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let payload = &bytes[24..];
        if payload.len() != len {
            return Err(format!(
                "checkpoint length mismatch: header says {len}, got {}",
                payload.len()
            ));
        }
        if fnv1a(payload) != sum {
            return Err("checkpoint corrupt: FNV checksum mismatch".into());
        }
        Ok(Reader {
            buf: payload,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("checkpoint truncated: payload ends mid-field".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// All payload bytes consumed?
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn u8_(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool_(&mut self) -> Result<bool, String> {
        match self.u8_()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }

    pub(crate) fn u64_(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn usize_(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64_()?).map_err(|_| "usize overflow".to_string())
    }

    /// Bounded element count for a field about to be allocated: any real
    /// session is far below this, so larger values mean corruption the
    /// checksum did not catch (or a hostile file) — fail, don't OOM.
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let n = self.usize_()?;
        if n > (1 << 32) {
            return Err(format!("implausible {what} count {n}"));
        }
        Ok(n)
    }

    pub(crate) fn f64_(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64_()?))
    }

    pub(crate) fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.usize_()?;
        let cols = self.usize_()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| "matrix size overflow".to_string())?;
        if n > (1 << 32) {
            return Err(format!("implausible matrix size {rows}x{cols}"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64_()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    pub(crate) fn matrices(&mut self) -> Result<Vec<Matrix>, String> {
        let n = self.count("matrix")?;
        (0..n).map(|_| self.matrix()).collect()
    }

    pub(crate) fn tensor(&mut self) -> Result<DenseTensor, String> {
        let order = self.count("tensor mode")?;
        let dims: Vec<usize> = (0..order)
            .map(|_| self.usize_())
            .collect::<Result<_, _>>()?;
        let n = dims
            .iter()
            .try_fold(1usize, |a, &d| a.checked_mul(d))
            .ok_or_else(|| "tensor size overflow".to_string())?;
        if n > (1 << 32) {
            return Err(format!("implausible tensor size {dims:?}"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64_()?);
        }
        Ok(DenseTensor::from_vec(Shape::new(dims), data))
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.count("u64")?;
        (0..n).map(|_| self.u64_()).collect()
    }

    pub(crate) fn usizes(&mut self) -> Result<Vec<usize>, String> {
        let n = self.count("usize")?;
        (0..n).map(|_| self.usize_()).collect()
    }

    pub(crate) fn u32_(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.count("u32")?;
        (0..n).map(|_| self.u32_()).collect()
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.count("f64")?;
        (0..n).map(|_| self.f64_()).collect()
    }

    pub(crate) fn intermediate(&mut self) -> Result<Intermediate, String> {
        let mode_order = self.usizes()?;
        let versions = self.u64s()?;
        let payload = match self.u8_()? {
            0 => Payload::Dense(Arc::new(self.tensor()?)),
            1 => {
                let dims = self.usizes()?;
                let r = self.usize_()?;
                let inds = self.u32s()?;
                let panels = self.f64s()?;
                let l = dims.len();
                if l == 0 || r == 0 || inds.len() % l != 0 || panels.len() != (inds.len() / l) * r {
                    return Err("inconsistent semi-sparse intermediate".into());
                }
                Payload::SemiSparse(Arc::new(SemiSparseTensor::from_parts(
                    dims, inds, panels, r,
                )))
            }
            v => return Err(format!("invalid intermediate representation tag {v}")),
        };
        Ok(Intermediate {
            payload,
            mode_order,
            versions,
        })
    }

    pub(crate) fn stats(&mut self) -> Result<KernelStats, String> {
        Ok(KernelStats {
            ttm_secs: self.f64_()?,
            mttv_secs: self.f64_()?,
            hadamard_secs: self.f64_()?,
            solve_secs: self.f64_()?,
            transpose_secs: self.f64_()?,
            other_secs: self.f64_()?,
            ttm_flops: self.u64_()?,
            mttv_flops: self.u64_()?,
            ttm_count: self.u64_()?,
            mttv_count: self.u64_()?,
            transpose_count: self.u64_()?,
            gemm_packed_flops: self.u64_()?,
            gemm_fixed_n_calls: self.u64_()?,
            gemm_generic_calls: self.u64_()?,
            sparse_mttkrp_flops: self.u64_()?,
            sparse_fibers_visited: self.u64_()?,
            semisparse_ttm_flops: self.u64_()?,
            semisparse_ttv_flops: self.u64_()?,
            semisparse_entries_visited: self.u64_()?,
            ..KernelStats::default()
        })
    }

    /// Length-prefixed opaque byte blob (see [`Writer::bytes`]).
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.count("byte")?;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn sweep(&mut self) -> Result<SweepRecord, String> {
        let kind = match self.u8_()? {
            0 => SweepKind::Exact,
            1 => SweepKind::PpInit,
            2 => SweepKind::PpApprox,
            v => return Err(format!("invalid sweep kind {v}")),
        };
        Ok(SweepRecord {
            kind,
            secs: self.f64_()?,
            fitness: self.f64_()?,
            cumulative_secs: self.f64_()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.u8_(7);
        w.bool_(true);
        w.u64_(u64::MAX);
        w.usize_(42);
        w.f64_(f64::NAN);
        w.f64_(f64::NEG_INFINITY);
        w.matrix(&Matrix::from_vec(2, 3, (0..6).map(|i| i as f64).collect()));
        w.tensor(&DenseTensor::from_vec(
            Shape::new(vec![2, 2]),
            vec![1.0, 2.0, 3.0, 4.0],
        ));
        w.u64s(&[1, 2, 3]);
        w.usizes(&[4, 5]);
        let bytes = w.frame();

        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u8_().unwrap(), 7);
        assert!(r.bool_().unwrap());
        assert_eq!(r.u64_().unwrap(), u64::MAX);
        assert_eq!(r.usize_().unwrap(), 42);
        assert!(r.f64_().unwrap().is_nan());
        assert_eq!(r.f64_().unwrap(), f64::NEG_INFINITY);
        let m = r.matrix().unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.data()[5], 5.0);
        let t = r.tensor().unwrap();
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usizes().unwrap(), vec![4, 5]);
        assert!(r.exhausted());
    }

    fn open_err(bytes: &[u8]) -> String {
        match Reader::open(bytes) {
            Err(e) => e,
            Ok(_) => panic!("expected a frame error"),
        }
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut w = Writer::new();
        w.u64_(123);
        let mut bytes = w.frame();
        assert!(Reader::open(&bytes[..10]).is_err(), "truncated header");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(open_err(&bytes).contains("checksum"));
        bytes[last] ^= 1;
        bytes[0] = b'X';
        assert!(open_err(&bytes).contains("magic"));
        bytes[0] = b'P';
        bytes[4] = 9; // version
        assert!(open_err(&bytes).contains("version"));
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_error() {
        // A file cut short anywhere — mid-header, mid-length, mid-payload —
        // must produce Err, never a panic or a partial parse.
        let mut w = Writer::new();
        w.u64_(7);
        w.matrix(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bytes = w.frame();
        for cut in 0..bytes.len() {
            let r = Reader::open(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail the frame check");
        }
    }

    #[test]
    fn payload_ending_mid_field_is_reported() {
        // A frame can be checksum-valid yet logically short for the reader
        // (e.g. written by a buggy producer): field reads must fail cleanly.
        let mut w = Writer::new();
        w.u64_(1);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u64_().unwrap(), 1);
        let e = r.u64_().expect_err("reading past the payload must fail");
        assert!(e.contains("mid-field"), "{e}");
        let mut r2 = Reader::open(&bytes).unwrap();
        let e2 = r2.matrix().expect_err("matrix past payload must fail");
        assert!(e2.contains("mid-field"), "{e2}");
    }

    #[test]
    fn bytes_blob_round_trips_and_rejects_truncation() {
        let inner: Vec<u8> = (0..100u8).collect();
        let mut w = Writer::new();
        w.bytes(&inner);
        w.u64_(0xdead);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.bytes().unwrap(), inner);
        assert_eq!(r.u64_().unwrap(), 0xdead);
        assert!(r.exhausted());

        // A blob whose declared length exceeds the payload must error.
        let mut w2 = Writer::new();
        w2.usize_(1 << 20); // length prefix with no data behind it
        let bytes2 = w2.frame();
        let mut r2 = Reader::open(&bytes2).unwrap();
        let e = r2.bytes().expect_err("oversized blob length");
        assert!(e.contains("mid-field"), "{e}");
    }

    #[test]
    fn implausible_counts_fail_without_allocating() {
        // u64::MAX as a count must be rejected by the plausibility bound,
        // not attempted as an allocation.
        let mut w = Writer::new();
        w.u64_(u64::MAX);
        let bytes = w.frame();
        let mut r = Reader::open(&bytes).unwrap();
        assert!(r.u64s().expect_err("count").contains("implausible"));
        let mut r2 = Reader::open(&bytes).unwrap();
        assert!(r2.bytes().expect_err("blob count").contains("implausible"));
    }
}

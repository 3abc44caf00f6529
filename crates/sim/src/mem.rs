//! Byte-addressed little-endian memory.

use std::fmt;

/// Error for an access outside the mapped region or with bad alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address (plus width) falls outside the mapped region.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
    /// Address is not naturally aligned for the access width.
    Misaligned {
        /// Faulting address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, width } => {
                write!(f, "{width}-byte access at {addr:#x} is out of bounds")
            }
            MemError::Misaligned { addr, width } => {
                write!(f, "{width}-byte access at {addr:#x} is misaligned")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A flat, byte-addressed, little-endian memory region.
///
/// The region starts at [`Memory::base`] and spans [`Memory::len`] bytes.
/// Natural alignment is enforced for multi-byte accesses, like on the
/// Rocket core used in the paper (which takes a misaligned-access trap).
///
/// # Examples
///
/// ```
/// use mpise_sim::Memory;
/// let mut m = Memory::new(0x1000, 64);
/// m.store(0x1008, 0xdead_beef_cafe_f00d, 8).unwrap();
/// assert_eq!(m.load_u64(0x1008).unwrap(), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.load(0x1008, 1).unwrap(), 0x0d); // little-endian
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    base: u64,
    bytes: Vec<u8>,
}

impl Memory {
    /// Creates a zero-filled memory of `len` bytes starting at `base`.
    pub fn new(base: u64, len: usize) -> Self {
        Memory {
            base,
            bytes: vec![0; len],
        }
    }

    /// Lowest mapped address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the mapped region in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The index of `addr` in `bytes`, for a `width`-byte access.
    /// `load` and `store` assert that `width` is 1, 2, 4 or 8, so a mask
    /// tests alignment without a division.
    #[inline(always)]
    fn offset(&self, addr: u64, width: u64) -> Result<usize, MemError> {
        if addr & (width - 1) != 0 {
            return Err(MemError::Misaligned { addr, width });
        }
        self.span(addr, width)
    }

    /// Loads an unsigned value of `width` bytes (1, 2, 4 or 8).
    ///
    /// # Errors
    ///
    /// [`MemError`] on out-of-bounds or misaligned access.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline(always)]
    pub fn load(&self, addr: u64, width: u64) -> Result<u64, MemError> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "unsupported width {width}");
        let off = self.offset(addr, width)?;
        let b = &self.bytes[off..];
        Ok(match width {
            1 => u64::from(b[0]),
            2 => u64::from(u16::from_le_bytes([b[0], b[1]])),
            4 => u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            _ => u64::from_le_bytes(b[..8].try_into().expect("8 bytes in bounds")),
        })
    }

    /// Stores the low `width` bytes of `value` (width 1, 2, 4 or 8).
    ///
    /// # Errors
    ///
    /// [`MemError`] on out-of-bounds or misaligned access.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline(always)]
    pub fn store(&mut self, addr: u64, value: u64, width: u64) -> Result<(), MemError> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "unsupported width {width}");
        let off = self.offset(addr, width)?;
        let b = &mut self.bytes[off..];
        match width {
            1 => b[0] = value as u8,
            2 => b[..2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => b[..4].copy_from_slice(&(value as u32).to_le_bytes()),
            _ => b[..8].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Loads a 64-bit double-word.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.load(addr, 8)
    }

    /// The index in `bytes` of the `width` bytes starting at `addr`,
    /// checked once for the whole range.
    fn span(&self, addr: u64, width: u64) -> Result<usize, MemError> {
        let end = addr
            .checked_add(width)
            .ok_or(MemError::OutOfBounds { addr, width })?;
        if addr < self.base || end > self.base + self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        Ok((addr - self.base) as usize)
    }

    /// The index in `bytes` of an array of `words` 64-bit limbs at
    /// `addr`: its first limb must be 8-byte aligned (then every limb
    /// is) and the whole array must be mapped.
    fn limb_span(&self, addr: u64, words: usize) -> Result<usize, MemError> {
        if addr & 7 != 0 {
            return Err(MemError::Misaligned { addr, width: 8 });
        }
        self.span(addr, 8 * words as u64)
    }

    /// The `words` 64-bit words at `addr` as bytes, checked once as
    /// for [`Memory::read_limbs`].
    #[inline(always)]
    pub(crate) fn words(&self, addr: u64, words: usize) -> Result<&[u8], MemError> {
        let off = self.limb_span(addr, words)?;
        Ok(&self.bytes[off..off + 8 * words])
    }

    /// The `words` 64-bit words at `addr` as writable bytes, checked
    /// once as for [`Memory::write_limbs`].
    #[inline(always)]
    pub(crate) fn words_mut(&mut self, addr: u64, words: usize) -> Result<&mut [u8], MemError> {
        let off = self.limb_span(addr, words)?;
        Ok(&mut self.bytes[off..off + 8 * words])
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the range is not mapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.span(addr, len as u64)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Writes an array of 64-bit limbs at `addr` (little-endian, limb 0
    /// lowest) — the layout MPI kernels use for operands.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] when `addr` is not 8-byte aligned and
    /// [`MemError::OutOfBounds`] (with the array's byte length as the
    /// width) when the array does not fit. Either way the check covers
    /// the whole array before any byte is written.
    pub fn write_limbs(&mut self, addr: u64, limbs: &[u64]) -> Result<(), MemError> {
        let bytes = self.words_mut(addr, limbs.len())?;
        for (chunk, l) in bytes.chunks_exact_mut(8).zip(limbs) {
            chunk.copy_from_slice(&l.to_le_bytes());
        }
        Ok(())
    }

    /// Reads `out.len()` 64-bit limbs starting at `addr` into `out`.
    ///
    /// # Errors
    ///
    /// As for [`Memory::write_limbs`]; `out` is left unchanged.
    pub fn read_limbs(&self, addr: u64, out: &mut [u64]) -> Result<(), MemError> {
        let bytes = self.words(addr, out.len())?;
        for (l, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *l = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(0, 16);
        m.store(0, 0x0102_0304_0506_0708, 8).unwrap();
        assert_eq!(m.load(0, 1).unwrap(), 0x08);
        assert_eq!(m.load(7, 1).unwrap(), 0x01);
        assert_eq!(m.load(0, 4).unwrap(), 0x0506_0708);
        assert_eq!(m.load(4, 4).unwrap(), 0x0102_0304);
    }

    #[test]
    fn bounds_checked() {
        let mut m = Memory::new(0x100, 8);
        assert!(m.load_u64(0x100).is_ok());
        assert!(m.load_u64(0x108).is_err());
        assert!(m.load(0xff, 1).is_err());
        assert!(m.store(0x108, 0, 8).is_err());
    }

    #[test]
    fn alignment_checked() {
        let m = Memory::new(0, 32);
        assert!(matches!(
            m.load_u64(4),
            Err(MemError::Misaligned { addr: 4, width: 8 })
        ));
        assert!(m.load(2, 2).is_ok());
        assert!(m.load(1, 2).is_err());
        assert!(m.load(3, 1).is_ok());
    }

    #[test]
    fn limb_round_trip() {
        let mut m = Memory::new(0x1000, 128);
        let limbs = [1u64, u64::MAX, 0x1234_5678_9abc_def0, 42];
        m.write_limbs(0x1000, &limbs).unwrap();
        let mut back = [0u64; 4];
        m.read_limbs(0x1000, &mut back).unwrap();
        assert_eq!(back, limbs);
    }

    #[test]
    fn limb_arrays_are_checked_whole_before_any_write() {
        let mut m = Memory::new(0x1000, 64);
        m.write_limbs(0x1000, &[7; 8]).unwrap();
        let mut back = [0u64; 8];
        m.read_limbs(0x1000, &mut back).unwrap();
        assert_eq!(back, [7; 8]);
        // Ends exactly at the end of the region.
        m.write_limbs(0x1030, &[1, 2]).unwrap();
        let mut tail = [0u64; 2];
        m.read_limbs(0x1030, &mut tail).unwrap();
        assert_eq!(tail, [1, 2]);

        let misaligned = MemError::Misaligned {
            addr: 0x1004,
            width: 8,
        };
        assert_eq!(m.write_limbs(0x1004, &[9, 9]), Err(misaligned));
        assert_eq!(m.read_limbs(0x1004, &mut tail), Err(misaligned));
        // Runs one limb past the end: nothing is written, not even the
        // limbs that would fit.
        let past = MemError::OutOfBounds {
            addr: 0x1030,
            width: 24,
        };
        assert_eq!(m.write_limbs(0x1030, &[9, 9, 9]), Err(past));
        assert_eq!(m.read_limbs(0x1030, &mut [0; 3]), Err(past));
        m.read_limbs(0x1000, &mut back).unwrap();
        assert_eq!(back, [7, 7, 7, 7, 7, 7, 1, 2]);
        // An address so high that the end wraps is out of bounds too.
        assert!(m.read_limbs(u64::MAX - 7, &mut [0; 2]).is_err());
    }

    #[test]
    fn byte_round_trip() {
        let mut m = Memory::new(0, 16);
        m.write_limbs(8, &[0x0706_0504_0302_0100]).unwrap();
        assert_eq!(m.read_bytes(10, 3).unwrap(), &[2, 3, 4]);
        assert_eq!(m.read_bytes(13, 3).unwrap(), &[5, 6, 7]);
        let past = MemError::OutOfBounds { addr: 14, width: 3 };
        assert_eq!(m.read_bytes(14, 3), Err(past));
        assert!(m.read_bytes(u64::MAX, 2).is_err());
    }
}

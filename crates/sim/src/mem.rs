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
/// m.store_u64(0x1008, 0xdead_beef_cafe_f00d).unwrap();
/// assert_eq!(m.load_u64(0x1008).unwrap(), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.load_u8(0x1008).unwrap(), 0x0d); // little-endian
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

    #[inline(always)]
    fn offset(&self, addr: u64, width: u64) -> Result<usize, MemError> {
        if width > 1 && !addr.is_multiple_of(width) {
            return Err(MemError::Misaligned { addr, width });
        }
        let end = addr
            .checked_add(width)
            .ok_or(MemError::OutOfBounds { addr, width })?;
        if addr < self.base || end > self.base + self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        Ok((addr - self.base) as usize)
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

    /// Loads a byte.
    pub fn load_u8(&self, addr: u64) -> Result<u8, MemError> {
        self.load(addr, 1).map(|v| v as u8)
    }

    /// Loads a 64-bit double-word.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.load(addr, 8)
    }

    /// Stores a 64-bit double-word.
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.store(addr, value, 8)
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the slice does not fit.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let width = data.len() as u64;
        if addr < self.base || addr + width > self.base + self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        let off = (addr - self.base) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the range is not mapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let width = len as u64;
        if addr < self.base || addr + width > self.base + self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        let off = (addr - self.base) as usize;
        Ok(&self.bytes[off..off + len])
    }

    /// Writes an array of 64-bit limbs at `addr` (little-endian, limb 0
    /// lowest) — the layout MPI kernels use for operands.
    pub fn write_limbs(&mut self, addr: u64, limbs: &[u64]) -> Result<(), MemError> {
        for (i, &l) in limbs.iter().enumerate() {
            self.store_u64(addr + 8 * i as u64, l)?;
        }
        Ok(())
    }

    /// Reads `out.len()` 64-bit limbs starting at `addr` into `out`.
    pub fn read_limbs(&self, addr: u64, out: &mut [u64]) -> Result<(), MemError> {
        for (i, l) in out.iter_mut().enumerate() {
            *l = self.load_u64(addr + 8 * i as u64)?;
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
        m.store_u64(0, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 0x08);
        assert_eq!(m.load_u8(7).unwrap(), 0x01);
        assert_eq!(m.load(0, 4).unwrap(), 0x0506_0708);
        assert_eq!(m.load(4, 4).unwrap(), 0x0102_0304);
    }

    #[test]
    fn bounds_checked() {
        let mut m = Memory::new(0x100, 8);
        assert!(m.load_u64(0x100).is_ok());
        assert!(m.load_u64(0x108).is_err());
        assert!(m.load_u8(0xff).is_err());
        assert!(m.store_u64(0x108, 0).is_err());
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
        assert!(m.load_u8(3).is_ok());
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
    fn byte_round_trip() {
        let mut m = Memory::new(0, 8);
        m.write_bytes(2, &[9, 8, 7]).unwrap();
        assert_eq!(m.read_bytes(2, 3).unwrap(), &[9, 8, 7]);
        assert!(m.write_bytes(6, &[1, 2, 3]).is_err());
    }
}

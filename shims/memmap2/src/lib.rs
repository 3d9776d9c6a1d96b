//! Workspace-local stand-in for the `memmap2` crate.
//!
//! Provides the two mapping types the workspace uses, backed directly
//! by `mmap(2)`:
//!
//! * [`MmapRaw`] — a shared read/write mapping exposed through raw
//!   pointers (callers do their own bounds checking and synchronization);
//! * [`MmapMut`] — a shared mutable mapping dereferencing to `[u8]`.
//!
//! Both unmap on drop. Unlike the real crate, mapping a zero-length
//! file succeeds: the shim asks `mmap` for `len.max(1)` bytes, and the
//! mapping reports a length of zero.

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain memory; synchronization of access is the
// caller's responsibility, as with the real memmap2 types.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn map(file: &File) -> io::Result<Mapping> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map",
            ));
        }
        let len = len as usize;
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len.max(1),
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr as *mut u8,
            len,
        })
    }

    fn flush(&self) -> io::Result<()> {
        let rc = unsafe { libc::msync(self.ptr as *mut libc::c_void, self.len, libc::MS_SYNC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.ptr as *mut libc::c_void, self.len.max(1));
        }
    }
}

/// A shared read/write file mapping accessed through raw pointers.
pub struct MmapRaw(Mapping);

impl MmapRaw {
    /// Map the whole of `file` shared and writable.
    pub fn map_raw(file: &File) -> io::Result<MmapRaw> {
        Mapping::map(file).map(MmapRaw)
    }

    /// Base pointer of the mapping.
    pub fn as_ptr(&self) -> *const u8 {
        self.0.ptr
    }

    /// Mutable base pointer of the mapping.
    pub fn as_mut_ptr(&self) -> *mut u8 {
        self.0.ptr
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Synchronously flush dirty pages back to the file.
    pub fn flush(&self) -> io::Result<()> {
        self.0.flush()
    }
}

/// A shared mutable file mapping dereferencing to `[u8]`.
pub struct MmapMut(Mapping);

impl MmapMut {
    /// Map the whole of `file` shared and writable.
    ///
    /// # Safety
    ///
    /// The caller must ensure the underlying file is not truncated or
    /// concurrently modified in ways that violate Rust's aliasing rules
    /// for the mapped slice (same contract as `memmap2::MmapMut`).
    pub unsafe fn map_mut(file: &File) -> io::Result<MmapMut> {
        Mapping::map(file).map(MmapMut)
    }

    /// Synchronously flush dirty pages back to the file.
    pub fn flush(&self) -> io::Result<()> {
        self.0.flush()
    }
}

impl std::ops::Deref for MmapMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.0.ptr, self.0.len) }
    }
}

impl std::ops::DerefMut for MmapMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.0.ptr, self.0.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("memmap2-shim-{}-{name}", std::process::id()))
    }

    #[test]
    fn mmap_mut_reads_and_writes_through() {
        let path = tmp("rw");
        let mut f = File::create(&path).unwrap();
        f.write_all(&[1u8; 8192]).unwrap();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut m = unsafe { MmapMut::map_mut(&f).unwrap() };
        assert_eq!(m.len(), 8192);
        assert_eq!(m[0], 1);
        m[4096] = 42;
        m.flush().unwrap();
        drop(m);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4096], 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_mapping_exposes_pointers() {
        let path = tmp("raw");
        std::fs::write(&path, [7u8; 4096]).unwrap();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let m = MmapRaw::map_raw(&f).unwrap();
        assert_eq!(m.len(), 4096);
        unsafe {
            assert_eq!(*m.as_ptr(), 7);
            *m.as_mut_ptr().add(1) = 9;
            assert_eq!(*m.as_ptr().add(1), 9);
        }
        std::fs::remove_file(&path).unwrap();
    }
}

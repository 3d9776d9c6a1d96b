//! Workspace-local stand-in for the `libc` crate.
//!
//! Declares exactly the symbols and constants the workspace uses, with
//! Linux values: the shared mappings of the `memmap2` shim and of
//! calibrate's `MT` probe, the mmap store's page-table population, and
//! the CLI's SIGTERM handler. The process already links the system C
//! library through std, so plain `extern "C"` declarations resolve
//! against it.

#![allow(non_camel_case_types)]

pub use std::ffi::c_void;

pub type c_int = i32;
pub type off_t = i64;
pub type size_t = usize;

/// Pages may be read.
pub const PROT_READ: c_int = 0x1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 0x2;

/// Updates are visible to other mappings of the same file.
pub const MAP_SHARED: c_int = 0x01;
/// Mapping is not backed by any file.
pub const MAP_ANONYMOUS: c_int = 0x20;
/// `mmap`'s error return.
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// Synchronous `msync`.
pub const MS_SYNC: c_int = 4;

/// `madvise`: fault the range in writable, as a write to each page
/// would (Linux 5.14 and later; older kernels return `EINVAL`).
pub const MADV_POPULATE_WRITE: c_int = 23;

/// Termination request (`kill -TERM`).
pub const SIGTERM: c_int = 15;

/// Signal disposition: a handler address, `SIG_DFL` (0) or `SIG_IGN`
/// (1).
pub type sighandler_t = usize;

/// `signal`'s error return.
pub const SIG_ERR: sighandler_t = usize::MAX;

extern "C" {
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn msync(addr: *mut c_void, len: size_t, flags: c_int) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_installs_and_restores_a_handler() {
        extern "C" fn noop(_: c_int) {}
        let noop_addr = noop as *const () as sighandler_t;
        unsafe {
            let prev = signal(SIGTERM, noop_addr);
            assert_ne!(prev, SIG_ERR);
            let back = signal(SIGTERM, prev);
            assert_eq!(back, noop_addr);
        }
    }

    #[test]
    fn anonymous_mapping_roundtrip() {
        unsafe {
            let len = 2 * 4096usize;
            let p = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            *(p as *mut u8) = 0xAB;
            assert_eq!(*(p as *const u8), 0xAB);
            assert_eq!(munmap(p, len), 0);
        }
    }
}

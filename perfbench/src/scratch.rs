//! Scratch hygiene and the host facts echoed in every run's header.
//!
//! The benchmark reads and writes only inside the checkout it runs
//! from, so stores and write-ahead logs both live under
//! `.bench_scratch/<pid>/` on the checkout's filesystem (the issue's
//! tmpfs-store / disk-WAL split needs paths outside the checkout). The
//! filesystem type is reported, and a journaled workload refused on
//! tmpfs, because `msync` is free there and would hide the journal.

use std::path::{Path, PathBuf};

/// Directory (relative to the working directory, which is the root of
/// the checkout) that holds every per-run scratch root.
pub const SCRATCH_BASE: &str = ".bench_scratch";

/// A per-run scratch root, removed when dropped — at normal exit and
/// while a panic unwinds alike.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create `<base>/<pid>-<label>/`, replacing any leftover of a
    /// killed run that had the same name.
    pub fn new(base: &Path, label: &str) -> std::io::Result<Scratch> {
        let root = base.join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory path (not created: the stores create
    /// their own roots).
    pub fn dir(&self, name: &str) -> PathBuf {
        let path = self.root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty base behind; fails harmlessly while a
        // concurrent run still has its own root in it.
        if let Some(base) = self.root.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `"unknown"` off Linux.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_in(&mounts, &path)
}

fn fs_type_in(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 when the
/// kernel does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the working directory is at, read from `.git` without
/// running git; `"unknown"` in an exported checkout.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_root_is_removed_on_drop_and_on_panic() {
        let base = Path::new(SCRATCH_BASE).join("test-scratch");
        let kept;
        {
            let s = Scratch::new(&base, "a").unwrap();
            std::fs::write(s.root().join("f"), b"x").unwrap();
            kept = s.root().to_path_buf();
            assert!(kept.exists());
        }
        assert!(!kept.exists(), "dropped scratch must vanish");
        assert!(!base.exists(), "and take its empty base with it");

        let base2 = base.clone();
        let unwound = std::panic::catch_unwind(move || {
            let s = Scratch::new(&base2, "b").unwrap();
            std::fs::create_dir_all(s.dir("store").join("disk0")).unwrap();
            panic!("workload blew up");
        });
        assert!(unwound.is_err());
        assert!(!base.exists(), "a panicking run leaves nothing behind");
    }

    #[test]
    fn fs_type_picks_the_longest_mount_prefix() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n/dev/vdb /data/wal xfs rw 0 0\n";
        assert_eq!(fs_type_in(mounts, Path::new("/dev/shm/x")), "tmpfs");
        assert_eq!(fs_type_in(mounts, Path::new("/data/wal/j")), "xfs");
        assert_eq!(fs_type_in(mounts, Path::new("/data/other")), "ext4");
        assert_eq!(fs_type_in("", Path::new("/x")), "unknown");
    }

    #[test]
    fn host_facts_are_readable_here() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!git_commit().is_empty());
    }
}

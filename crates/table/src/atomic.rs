//! Crash-safe file replacement.
//!
//! Every file the tools write — rule-store records, `--checkpoint`,
//! `--metrics-out`, `--repair` CSVs — goes through [`write_atomic`], so a
//! reader or a crash sees either the previous file or the new one whole,
//! never a torn mix.

use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Replace `path` with `contents`: write them to a temporary file in the
/// target's directory, sync it, rename it over the target (atomic within
/// one file system), then, on Unix, sync the directory so the rename is
/// durable. If any step up to the rename fails, the temporary file is
/// removed and the target is left as it was.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path does not name a file"))?;
    // Hidden, and unique per process and call, so concurrent writers of
    // one target never share a temporary file.
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let result = File::create(&tmp).and_then(|mut file| {
        file.write_all(contents.as_ref())?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    });
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Only Unix can open a directory to sync it.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anmat_atomic_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> Vec<OsString> {
        let mut names: Vec<OsString> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn overwrite_replaces_whole_file_and_leaves_no_temporary() {
        let dir = fresh_dir("overwrite");
        let target = dir.join("out.json");
        fs::write(&target, "a much longer previous body that must not survive").unwrap();
        write_atomic(&target, "short").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"short");
        assert_eq!(entries(&dir), vec![OsString::from("out.json")]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_write_errors_and_leaves_previous_contents() {
        let dir = fresh_dir("failed");
        // The target is a directory: the rename over it fails.
        let target = dir.join("out");
        fs::create_dir(&target).unwrap();
        fs::write(target.join("kept.json"), "previous").unwrap();
        assert!(write_atomic(&target, "new").is_err());
        assert_eq!(fs::read(target.join("kept.json")).unwrap(), b"previous");
        assert_eq!(entries(&dir), vec![OsString::from("out")]);
        // The target's directory is a file: nothing can be created, and
        // the file is untouched.
        let file = dir.join("plain.csv");
        fs::write(&file, "previous").unwrap();
        assert!(write_atomic(file.join("child"), "new").is_err());
        assert_eq!(fs::read(&file).unwrap(), b"previous");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn path_without_file_name_is_rejected() {
        let err = write_atomic("/", "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}

//! Crash-safe file replacement: every journal and export is written with
//! one [`write_atomic`] call, so a reader never sees a half-written file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Write `contents` to `path` atomically: write a `.tmp.<pid>` sibling,
/// then rename over the destination, so a crash mid-write never leaves a
/// truncated file behind.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("vds-wa-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "two");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}

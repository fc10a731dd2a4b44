//! A file system in memory with tmpfs semantics, for the `service`
//! workload: files live in RAM, `fsync` of a file or a directory does
//! nothing, and every other operation fails where `std::fs` would (a
//! missing file, a missing parent directory).
//!
//! Files are indexed by their directory, so each operation costs a hash
//! lookup plus the bytes it moves, however many sessions the service has
//! written. The program's own store and service code run unchanged on
//! top of it; only the cost below the [`Vfs`] seam is fixed here.

use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sops_chains::Vfs;

/// Directory → the files directly inside it.
type Tree = HashMap<PathBuf, BTreeMap<OsString, Vec<u8>>>;

#[derive(Default)]
pub struct MemFs {
    tree: Mutex<Tree>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

/// A file's directory and name.
fn split(path: &Path) -> io::Result<(&Path, OsString)> {
    match (path.parent(), path.file_name()) {
        (Some(dir), Some(name)) => Ok((dir, name.to_os_string())),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            path.display().to_string(),
        )),
    }
}

impl MemFs {
    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the content of the existing file `path`.
    fn with_file<T>(&self, path: &Path, f: impl FnOnce(&mut Vec<u8>) -> T) -> io::Result<T> {
        let (dir, name) = split(path)?;
        let mut tree = self.tree();
        let data = tree
            .get_mut(dir)
            .and_then(|files| files.get_mut(&name))
            .ok_or_else(|| not_found(path))?;
        Ok(f(data))
    }
}

impl Vfs for MemFs {
    fn create(&self, path: &Path) -> io::Result<()> {
        let (dir, name) = split(path)?;
        let mut tree = self.tree();
        let files = tree.get_mut(dir).ok_or_else(|| not_found(dir))?;
        files.insert(name, Vec::new());
        Ok(())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with_file(path, |file| {
            file.clear();
            file.extend_from_slice(data);
        })
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.with_file(path, |_| ())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (from_dir, from_name) = split(from)?;
        let (to_dir, to_name) = split(to)?;
        let mut tree = self.tree();
        if !tree.contains_key(to_dir) {
            return Err(not_found(to_dir));
        }
        let data = tree
            .get_mut(from_dir)
            .and_then(|files| files.remove(&from_name))
            .ok_or_else(|| not_found(from))?;
        tree.get_mut(to_dir)
            .expect("checked above")
            .insert(to_name, data);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with_file(path, |file| file.clone())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.tree();
        let files = tree.get(dir).ok_or_else(|| not_found(dir))?;
        Ok(files.keys().map(|name| dir.join(name)).collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let (dir, name) = split(path)?;
        self.tree()
            .get_mut(dir)
            .and_then(|files| files.remove(&name))
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for ancestor in dir.ancestors().filter(|a| !a.as_os_str().is_empty()) {
            tree.entry(ancestor.to_path_buf()).or_default();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_file_system_without_durability_costs() {
        let fs = MemFs::default();
        let (d, f) = (Path::new("r/d"), Path::new("r/d/a.tmp"));
        assert_eq!(fs.create(f).unwrap_err().kind(), io::ErrorKind::NotFound);
        fs.create_dir_all(d).unwrap();
        assert!(fs.list(Path::new("r")).unwrap().is_empty());
        assert_eq!(
            fs.write(f, b"x").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        fs.create(f).unwrap();
        fs.write(f, b"snap").unwrap();
        fs.sync(f).unwrap();
        fs.rename(f, Path::new("r/d/a")).unwrap();
        fs.sync_dir(d).unwrap();
        assert_eq!(fs.list(d).unwrap(), [PathBuf::from("r/d/a")]);
        assert_eq!(fs.read(Path::new("r/d/a")).unwrap(), b"snap");
        assert!(fs.read(f).is_err());
        fs.remove(Path::new("r/d/a")).unwrap();
        assert!(fs.remove(Path::new("r/d/a")).is_err());
        assert!(fs.list(d).unwrap().is_empty());
        assert!(fs.list(Path::new("r/e")).is_err());
    }
}

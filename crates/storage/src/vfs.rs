//! Virtual file system: every durable-I/O syscall the storage layer makes
//! goes through the [`Vfs`] trait.
//!
//! Two implementations:
//!
//! * [`StdVfs`] — the real thing, a thin veneer over `std::fs`.
//! * [`SimVfs`] — a deterministic in-memory simulator in the FoundationDB
//!   style. It distinguishes *durable* bytes (survived an `fsync`) from
//!   *pending* bytes (written but not yet synced), counts every mutating
//!   syscall, and can be armed to crash at the K-th such syscall — including
//!   tearing the in-flight write at a pseudo-random prefix. After a crash,
//!   [`SimVfs::crash_image`] produces the file system a rebooted process
//!   would see: durable bytes always survive; for the pending bytes the
//!   caller picks a fate (all lost, all kept, or independently torn), so the
//!   recovery path can be swept across every syscall boundary × every
//!   unsynced-write outcome.
//!
//! Simplifications, documented so the tests know what they prove:
//! `rename` and `remove` are modelled as atomic-and-durable at the moment
//! they succeed (real file systems need a directory fsync; our checkpoint
//! protocol only renames fully-synced files, so the distinction does not
//! change what recovery can observe), and directories are implicit — paths
//! are flat strings and `create_dir_all` is a no-op in the simulator.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::Mutex;

/// Abstract file system used by the durability subsystem.
///
/// All paths are plain UTF-8 strings. Object-safe on purpose: the catalog
/// holds an `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read the whole file.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Replace the whole file (create if missing). Not durable until
    /// [`Vfs::sync`].
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Append to the file (create if missing). Not durable until
    /// [`Vfs::sync`].
    fn append(&self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Make all previous writes to `path` durable (`fsync`).
    fn sync(&self, path: &str) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Delete a file.
    fn remove(&self, path: &str) -> io::Result<()>;
    fn exists(&self, path: &str) -> bool;
    /// File names (not full paths) directly inside `dir`.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;
    fn create_dir_all(&self, dir: &str) -> io::Result<()>;
}

/// The real file system.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        f.write_all(data)
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// What happens to bytes that were written but never synced when a crash
/// image is taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsyncedFate {
    /// Every unsynced write is lost (the conservative outcome `fsync`
    /// guarantees against).
    DropAll,
    /// Every unsynced write made it to disk anyway (the lucky outcome).
    KeepAll,
    /// Each unsynced write independently survives, vanishes, or is torn at
    /// a prefix chosen by a deterministic PRNG seeded here.
    Torn(u64),
}

/// One write that has not been fsynced yet.
#[derive(Clone, Debug)]
enum Pending {
    Append(Vec<u8>),
    Rewrite(Vec<u8>),
}

#[derive(Clone, Debug, Default)]
struct SimFile {
    durable: Vec<u8>,
    pending: Vec<Pending>,
}

impl SimFile {
    /// The content a reader of the *live* (not-yet-crashed) process sees.
    fn logical(&self) -> Vec<u8> {
        let mut v = self.durable.clone();
        for p in &self.pending {
            match p {
                Pending::Append(d) => v.extend_from_slice(d),
                Pending::Rewrite(d) => {
                    v.clear();
                    v.extend_from_slice(d);
                }
            }
        }
        v
    }
}

#[derive(Debug)]
struct SimState {
    files: BTreeMap<String, SimFile>,
    /// Mutating syscalls performed so far (write/append/sync/rename/remove).
    ops: u64,
    /// Crash when `ops` reaches this value.
    crash_at: Option<u64>,
    crashed: bool,
    rng: u64,
}

/// Deterministic in-memory file system with crash injection.
#[derive(Debug)]
pub struct SimVfs {
    state: Mutex<SimState>,
}

impl Default for SimVfs {
    fn default() -> Self {
        SimVfs::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    let mut v = *x;
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    *x = v;
    v
}

fn crash_err() -> io::Error {
    io::Error::other("simulated crash: vfs is down")
}

impl SimVfs {
    pub fn new() -> Self {
        SimVfs {
            state: Mutex::new(SimState {
                files: BTreeMap::new(),
                ops: 0,
                crash_at: None,
                crashed: false,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// Arm a crash at the `op`-th mutating syscall from now (1-based over
    /// the *total* op counter). A crash during a data write tears it at a
    /// pseudo-random prefix before failing; after the crash every further
    /// operation fails until a fresh [`SimVfs::crash_image`] is taken.
    pub fn set_crash_at(&self, op: u64) {
        let mut st = self.state.lock().unwrap();
        st.crash_at = Some(op);
    }

    /// Total mutating syscalls performed so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    pub fn has_crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// The file system a rebooted process would observe: durable bytes plus
    /// whatever `fate` says happened to the unsynced tail. The image is a
    /// fresh, un-armed `SimVfs` (everything in it counts as durable).
    pub fn crash_image(&self, fate: UnsyncedFate) -> SimVfs {
        let st = self.state.lock().unwrap();
        let mut rng = match fate {
            UnsyncedFate::Torn(seed) => seed | 1,
            _ => 1,
        };
        let mut files = BTreeMap::new();
        // BTreeMap iteration order is the path order — deterministic, so a
        // given (crash point, seed) always produces the same image.
        for (path, f) in &st.files {
            let content = match fate {
                UnsyncedFate::DropAll => f.durable.clone(),
                UnsyncedFate::KeepAll => f.logical(),
                UnsyncedFate::Torn(_) => {
                    let mut v = f.durable.clone();
                    for p in &f.pending {
                        let choice = xorshift(&mut rng) % 3;
                        let torn = |rng: &mut u64, d: &[u8]| {
                            let cut = (xorshift(rng) as usize) % (d.len() + 1);
                            d[..cut].to_vec()
                        };
                        match (p, choice) {
                            (Pending::Append(_), 0) | (Pending::Rewrite(_), 0) => {}
                            (Pending::Append(d), 1) => v.extend_from_slice(d),
                            (Pending::Append(d), _) => v.extend_from_slice(&torn(&mut rng, d)),
                            (Pending::Rewrite(d), 1) => v = d.clone(),
                            (Pending::Rewrite(d), _) => v = torn(&mut rng, d),
                        }
                    }
                    v
                }
            };
            files.insert(
                path.clone(),
                SimFile {
                    durable: content,
                    pending: Vec::new(),
                },
            );
        }
        SimVfs {
            state: Mutex::new(SimState {
                files,
                ops: 0,
                crash_at: None,
                crashed: false,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// Mutate raw file bytes directly (fuzzing hook; not a counted op).
    pub fn corrupt(&self, path: &str, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut st = self.state.lock().unwrap();
        match st.files.get_mut(path) {
            Some(file) => {
                let mut bytes = file.logical();
                f(&mut bytes);
                file.durable = bytes;
                file.pending.clear();
                true
            }
            None => false,
        }
    }

    /// All file paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.state.lock().unwrap().files.keys().cloned().collect()
    }

    /// Count the mutating syscalls `f` performs against this vfs.
    fn gate(st: &mut SimState) -> io::Result<bool> {
        if st.crashed {
            return Err(crash_err());
        }
        st.ops += 1;
        if st.crash_at == Some(st.ops) {
            st.crashed = true;
            return Ok(true);
        }
        Ok(false)
    }
}

impl Vfs for SimVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let st = self.state.lock().unwrap();
        st.files
            .get(path)
            .map(|f| f.logical())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }

    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let inject = SimVfs::gate(&mut st)?;
        if inject {
            let cut = (xorshift(&mut st.rng) as usize) % (data.len() + 1);
            let torn = data[..cut].to_vec();
            st.files
                .entry(path.to_string())
                .or_default()
                .pending
                .push(Pending::Rewrite(torn));
            return Err(crash_err());
        }
        st.files
            .entry(path.to_string())
            .or_default()
            .pending
            .push(Pending::Rewrite(data.to_vec()));
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let inject = SimVfs::gate(&mut st)?;
        if inject {
            let cut = (xorshift(&mut st.rng) as usize) % (data.len() + 1);
            let torn = data[..cut].to_vec();
            st.files
                .entry(path.to_string())
                .or_default()
                .pending
                .push(Pending::Append(torn));
            return Err(crash_err());
        }
        st.files
            .entry(path.to_string())
            .or_default()
            .pending
            .push(Pending::Append(data.to_vec()));
        Ok(())
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let inject = SimVfs::gate(&mut st)?;
        if inject {
            // The fsync never happened: pending writes stay pending.
            return Err(crash_err());
        }
        match st.files.get_mut(path) {
            Some(f) => {
                f.durable = f.logical();
                f.pending.clear();
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, path.to_string())),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let inject = SimVfs::gate(&mut st)?;
        if inject {
            // Crash before the rename took effect.
            return Err(crash_err());
        }
        let f = st
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
        st.files.insert(to.to_string(), f);
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let inject = SimVfs::gate(&mut st)?;
        if inject {
            return Err(crash_err());
        }
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.state.lock().unwrap().files.contains_key(path)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let st = self.state.lock().unwrap();
        let prefix = format!("{dir}/");
        let mut out: Vec<String> = st
            .files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(|s| s.to_string())
            .collect();
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, _dir: &str) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_writes_drop_on_conservative_image() {
        let v = SimVfs::new();
        v.write("db/a", b"durable").unwrap();
        v.sync("db/a").unwrap();
        v.append("db/a", b"+tail").unwrap(); // never synced
        let img = v.crash_image(UnsyncedFate::DropAll);
        assert_eq!(img.read("db/a").unwrap(), b"durable");
        let img = v.crash_image(UnsyncedFate::KeepAll);
        assert_eq!(img.read("db/a").unwrap(), b"durable+tail");
    }

    #[test]
    fn crash_at_op_tears_write_and_poisons_vfs() {
        let v = SimVfs::new();
        v.write("db/a", b"x").unwrap();
        v.sync("db/a").unwrap();
        v.set_crash_at(3);
        let err = v.append("db/a", b"0123456789").unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(v.has_crashed());
        assert!(v.append("db/a", b"more").is_err(), "vfs stays down");
        // The torn bytes are pending, never durable.
        let img = v.crash_image(UnsyncedFate::DropAll);
        assert_eq!(img.read("db/a").unwrap(), b"x");
        let img = v.crash_image(UnsyncedFate::KeepAll);
        let kept = img.read("db/a").unwrap();
        assert!(
            kept.len() <= 11 && kept.starts_with(b"x"),
            "torn prefix only"
        );
    }

    #[test]
    fn torn_images_are_deterministic() {
        let v = SimVfs::new();
        v.append("db/w", b"aaaa").unwrap();
        v.append("db/w", b"bbbb").unwrap();
        let a = v
            .crash_image(UnsyncedFate::Torn(7))
            .read("db/w")
            .unwrap_or_default();
        let b = v
            .crash_image(UnsyncedFate::Torn(7))
            .read("db/w")
            .unwrap_or_default();
        assert_eq!(a, b);
    }

    #[test]
    fn rename_and_list() {
        let v = SimVfs::new();
        v.write("db/snapshot.1.tmp", b"s").unwrap();
        v.sync("db/snapshot.1.tmp").unwrap();
        v.rename("db/snapshot.1.tmp", "db/snapshot.1").unwrap();
        assert_eq!(v.list("db").unwrap(), vec!["snapshot.1".to_string()]);
        assert!(v.exists("db/snapshot.1"));
        assert!(!v.exists("db/snapshot.1.tmp"));
    }

    #[test]
    fn ops_counted_for_mutations_only() {
        let v = SimVfs::new();
        v.write("db/a", b"1").unwrap(); // 1
        v.sync("db/a").unwrap(); // 2
        let _ = v.read("db/a").unwrap(); // not counted
        let _ = v.list("db").unwrap(); // not counted
        v.remove("db/a").unwrap(); // 3
        assert_eq!(v.op_count(), 3);
    }
}

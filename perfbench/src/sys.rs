//! The host the benchmark runs on: core count, cache sizes, the
//! transparent-huge-page mode, and this process's resident memory.

use std::path::Path;

/// What the benchmark records about its host before it measures.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Per-core L2 size in bytes (0 when the host does not report it).
    pub l2_bytes: u64,
    /// Last-level cache size in bytes (0 when the host does not report it).
    pub llc_bytes: u64,
    /// The selected transparent-huge-page mode, e.g. `madvise`.
    pub thp: String,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let (l2_bytes, llc_bytes) = cache_sizes(Path::new("/sys/devices/system/cpu/cpu0/cache"));
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .ok()
            .and_then(|s| selected_mode(&s))
            .unwrap_or_else(|| "unknown".to_string());
        Self { nproc, l2_bytes, llc_bytes, thp }
    }
}

/// `(L2, LLC)` in bytes from a sysfs cache directory: the unified or
/// data cache of level 2, and the largest level present.
fn cache_sizes(dir: &Path) -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = (0u32, 0u64);
    let Ok(entries) = std::fs::read_dir(dir) else { return (0, 0) };
    for entry in entries.flatten() {
        let read = |name: &str| std::fs::read_to_string(entry.path().join(name)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if level == 2 {
            l2 = bytes;
        }
        if level > llc.0 || (level == llc.0 && bytes > llc.1) {
            llc = (level, bytes);
        }
    }
    (l2, llc.1)
}

/// Parses sysfs cache sizes such as `2048K` or `105M`.
pub fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// The bracketed choice of a sysfs mode line such as
/// `always [madvise] never`.
pub fn selected_mode(line: &str) -> Option<String> {
    let start = line.find('[')?;
    let end = line[start..].find(']')? + start;
    Some(line[start + 1..end].to_string())
}

/// Peak (`VmHWM`) and current (`VmRSS`) resident memory of this
/// process, in MiB.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_and_modes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
        assert_eq!(selected_mode("always [madvise] never\n").as_deref(), Some("madvise"));
        assert_eq!(selected_mode("never"), None);
    }

    #[test]
    fn rss_is_readable_on_linux() {
        let (peak, now) = rss_mb();
        if cfg!(target_os = "linux") {
            assert!(peak >= now && now > 0.0, "peak {peak} now {now}");
        }
    }
}

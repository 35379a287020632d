//! Cache-line addresses and the machine-wide line directory.
//!
//! Transactional read/write sets are tracked at cache-line granularity,
//! exactly like TSX. Requester-wins conflict detection only ever asks "who
//! holds line `L`?", so instead of one set per logical CPU (probed once per
//! CPU on every access) the machine keeps one [`LineDirectory`]: an
//! open-addressing table mapping each tracked line to a `(readers, writers)`
//! pair of bitmasks over the logical CPUs. One probe answers the conflict
//! question for every CPU at once, and an entry exists only while some
//! in-flight transaction tracks its line, so clearing a transaction costs
//! its footprint rather than a table wipe.

use crate::machine::AccessKind;

/// A cache-line address (byte address >> 6 on the modelled 64-byte lines).
pub type LineAddr = u64;

/// Sentinel for an empty slot. Real line addresses never reach this value
/// because the workload address spaces are far below `2^63`.
const EMPTY: u64 = u64::MAX;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn hash(line: LineAddr) -> u64 {
    // FxHash-style single multiply + rotate: plenty for line addresses.
    line.wrapping_mul(FX_SEED).rotate_left(26)
}

/// CPU `cpu`'s bit in a holder mask; none for a CPU past the 64 a mask
/// can name (it can hold no line).
#[inline]
pub(crate) fn holder_bit(cpu: usize) -> u64 {
    if cpu < 64 {
        1 << cpu
    } else {
        0
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    readers: u64,
    writers: u64,
}

const VACANT: Entry = Entry {
    line: EMPTY,
    readers: 0,
    writers: 0,
};

/// Which logical CPUs hold each tracked cache line, and how.
///
/// Bit `t` of a line's `readers` (`writers`) mask is set while CPU `t`'s
/// in-flight transaction has the line in its read (write) set, so the
/// directory serves at most 64 CPUs. Linear probing with backward-shift
/// deletion keeps every probe run gap-free without tombstones: removing a
/// line's last bit deletes its entry outright.
///
/// ```
/// use seer_htm::{AccessKind, LineDirectory};
///
/// let mut d = LineDirectory::with_capacity(16);
/// assert!(d.insert(10, 3, AccessKind::Read));
/// assert!(!d.insert(10, 3, AccessKind::Read)); // already held
/// assert!(d.insert(10, 5, AccessKind::Write));
/// assert_eq!(d.holders(10), (1 << 3, 1 << 5));
/// d.remove(10, 3, AccessKind::Read);
/// d.remove(10, 5, AccessKind::Write);
/// assert_eq!(d.holders(10), (0, 0));
/// assert!(d.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LineDirectory {
    table: Vec<Entry>,
    mask: usize,
    len: usize,
}

impl LineDirectory {
    /// An empty directory sized for about `lines` tracked lines before it
    /// grows.
    pub fn with_capacity(lines: usize) -> Self {
        let size = (lines.max(8) * 2).next_power_of_two();
        Self {
            table: vec![VACANT; size],
            mask: size - 1,
            len: 0,
        }
    }

    /// Number of tracked lines (lines some CPU holds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no line is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot where `line`'s probe starts. Exposed so tests can build
    /// keys that collide and wrap around the end of the table.
    pub fn home_slot(&self, line: LineAddr) -> usize {
        hash(line) as usize & self.mask
    }

    /// The slot holding `line`, or the vacant slot that ends its probe run
    /// (where an insert would place it).
    #[inline]
    pub(crate) fn find(&self, line: LineAddr) -> usize {
        debug_assert_ne!(line, EMPTY, "sentinel value used as line address");
        let mut idx = self.home_slot(line);
        loop {
            let slot = self.table[idx].line;
            if slot == line || slot == EMPTY {
                return idx;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// `(readers, writers)` of the slot `find` returned; `(0, 0)` for a
    /// vacant one.
    #[inline]
    pub(crate) fn holders_at(&self, idx: usize) -> (u64, u64) {
        let e = &self.table[idx];
        (e.readers, e.writers)
    }

    /// Sets `bit` in the `kind` mask of `line`, whose slot `find` returned
    /// with no mutation since. Returns true when the bit was not set.
    #[inline]
    pub(crate) fn insert_at(
        &mut self,
        idx: usize,
        line: LineAddr,
        bit: u64,
        kind: AccessKind,
    ) -> bool {
        let e = &mut self.table[idx];
        let vacant = e.line == EMPTY;
        e.line = line;
        let mask = match kind {
            AccessKind::Read => &mut e.readers,
            AccessKind::Write => &mut e.writers,
        };
        let fresh = *mask & bit == 0;
        *mask |= bit;
        if vacant {
            self.len += 1;
            if self.len * 2 > self.table.len() {
                self.grow();
            }
        }
        fresh
    }

    /// `(readers, writers)` of `line`: `(0, 0)` when no CPU holds it.
    pub fn holders(&self, line: LineAddr) -> (u64, u64) {
        self.holders_at(self.find(line))
    }

    /// Marks `line` as held by CPU `cpu` for `kind`. Returns true when
    /// `cpu` did not already hold it that way.
    ///
    /// # Panics
    /// If `cpu >= 64`.
    pub fn insert(&mut self, line: LineAddr, cpu: usize, kind: AccessKind) -> bool {
        assert!(cpu < 64, "CPU {cpu} does not fit a 64-bit holder mask");
        let idx = self.find(line);
        self.insert_at(idx, line, holder_bit(cpu), kind)
    }

    /// Clears CPU `cpu`'s `kind` hold on `line`, deleting the entry once no
    /// CPU holds the line. A no-op if `cpu` did not hold it.
    pub fn remove(&mut self, line: LineAddr, cpu: usize, kind: AccessKind) {
        let idx = self.find(line);
        let e = &mut self.table[idx];
        if e.line == EMPTY {
            return;
        }
        match kind {
            AccessKind::Read => e.readers &= !holder_bit(cpu),
            AccessKind::Write => e.writers &= !holder_bit(cpu),
        }
        if e.readers | e.writers == 0 {
            self.delete(idx);
        }
    }

    /// Every tracked line with its `(readers, writers)`, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64, u64)> + '_ {
        self.table
            .iter()
            .filter(|e| e.line != EMPTY)
            .map(|e| (e.line, e.readers, e.writers))
    }

    /// Backward-shift deletion: empties `hole`, then walks its probe run
    /// moving back every later entry whose home slot does not lie
    /// (cyclically) in `(hole, j]`, so no entry ends up behind a gap.
    fn delete(&mut self, mut hole: usize) {
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let line = self.table[j].line;
            if line == EMPTY {
                break;
            }
            let home = self.home_slot(line);
            // The entry fills the hole unless its home lies cyclically in
            // `(hole, j]`, i.e. unless the home is nearer to j than the hole.
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.table[hole] = self.table[j];
                hole = j;
            }
        }
        self.table[hole] = VACANT;
    }

    #[cold]
    fn grow(&mut self) {
        let size = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![VACANT; size]);
        self.mask = size - 1;
        for e in old.into_iter().filter(|e| e.line != EMPTY) {
            let idx = self.find(e.line);
            self.table[idx] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_fresh_bits_per_kind() {
        let mut d = LineDirectory::with_capacity(8);
        assert!(d.insert(7, 0, AccessKind::Read));
        assert!(!d.insert(7, 0, AccessKind::Read));
        assert!(d.insert(7, 0, AccessKind::Write));
        assert!(d.insert(7, 63, AccessKind::Read));
        assert_eq!(d.holders(7), (1 | 1 << 63, 1));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn entries_vanish_with_their_last_holder() {
        let mut d = LineDirectory::with_capacity(8);
        d.insert(1, 2, AccessKind::Read);
        d.insert(1, 2, AccessKind::Write);
        d.remove(1, 2, AccessKind::Read);
        assert_eq!(d.len(), 1, "still written");
        d.remove(1, 2, AccessKind::Write);
        assert!(d.is_empty());
        // Removing what is not held changes nothing.
        d.remove(1, 2, AccessKind::Write);
        d.remove(9, 0, AccessKind::Read);
        assert!(d.is_empty());
    }

    #[test]
    fn backward_shift_keeps_wrapped_clusters_reachable() {
        let d0 = LineDirectory::with_capacity(8);
        let last = d0.table.len() - 1;
        // Six keys homed on the last two slots: the run wraps to slot 0.
        let keys: Vec<u64> = (0..)
            .filter(|&l| d0.home_slot(l) >= last - 1)
            .take(6)
            .collect();
        for victim in 0..keys.len() {
            let mut d = d0.clone();
            for (i, &k) in keys.iter().enumerate() {
                d.insert(k, i, AccessKind::Write);
            }
            d.remove(keys[victim], victim, AccessKind::Write);
            assert_eq!(d.len(), keys.len() - 1);
            for (i, &k) in keys.iter().enumerate() {
                let want = if i == victim { 0 } else { 1 << i };
                assert_eq!(d.holders(k), (0, want), "key {i} after deleting {victim}");
            }
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut d = LineDirectory::with_capacity(4);
        for i in 0..10_000u64 {
            assert!(d.insert(
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1,
                1,
                AccessKind::Read
            ));
        }
        assert_eq!(d.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(
                d.holders(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1),
                (2, 0)
            );
        }
    }
}

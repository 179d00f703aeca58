//! The object table: locations → data units.
//!
//! Jones & Kelly's checking scheme keeps every live allocation in an
//! ordered structure searched by address on each pointer operation; their
//! implementation (and CRED's) used a splay tree because memory accesses
//! have high temporal locality — the unit touched by one access is very
//! likely to be touched by the next. The table is a first-class,
//! swappable backend layer: every implementation of [`ObjectTable`]
//! provides byte-identical failure-oblivious semantics (asserted by the
//! cross-backend transcript-equivalence tests), so backend choice is a
//! pure performance decision made per [`TableKind`] in the memory
//! configuration and threaded from there through machines, server
//! drivers, and the farm.
//!
//! Three searchable backends ship, plus an adaptive wrapper:
//!
//! * [`SplayTable`] — self-adjusting, faithful to the original runtime;
//! * [`BTreeTable`] — the standard-library B-tree baseline;
//! * [`FlatTable`] — a cache-friendly sorted interval vector with
//!   last-hit memoization, for workloads whose table stays small and hot;
//! * [`AutoTable`] — per-space auto-selection: flat while the table is
//!   small (the farm's hot shape), promoted in place to a splay tree
//!   once it grows past [`AUTO_PROMOTE`] entries (deep single-machine
//!   traces). `Auto` is deliberately *not* part of [`TableKind::ALL`]:
//!   the sweep grids and their committed artifacts enumerate the three
//!   structural backends, and the adaptive wrapper is a policy over
//!   them, not a fourth structure.
//!
//! The table stores `(base, size, unit)` entries keyed by base address.
//! A lookup finds the entry with the greatest base not exceeding the query
//! address and checks that the address falls before `base + size`. The
//! memory space guarantees entries never overlap.

use std::collections::BTreeMap;
use std::fmt;

use crate::unit::UnitId;

/// A table entry: a live allocation's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// First byte of the unit.
    pub base: u64,
    /// Size of the unit in bytes.
    pub size: u64,
    /// The unit occupying `[base, base + size)`.
    pub unit: UnitId,
}

/// Which object-table backend to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableKind {
    /// Self-adjusting splay tree (default; as in Jones & Kelly).
    #[default]
    Splay,
    /// B-tree baseline.
    BTree,
    /// Sorted interval vector with last-hit memoization.
    Flat,
    /// Adaptive per-space selection: flat until [`AUTO_PROMOTE`]
    /// entries, then promoted in place to a splay tree.
    Auto,
}

impl TableKind {
    /// Every *structural* backend, in bench-report order. [`TableKind::Auto`]
    /// is a policy over these and is intentionally excluded — the sweep
    /// grids and their committed artifacts enumerate structures only.
    pub const ALL: [TableKind; 3] = [TableKind::Splay, TableKind::BTree, TableKind::Flat];

    /// Stable lower-case name (bench rows, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Splay => "splay",
            TableKind::BTree => "btree",
            TableKind::Flat => "flat",
            TableKind::Auto => "auto",
        }
    }

    /// Builds an empty table of this kind.
    ///
    /// Boxed dispatch costs one indirect call per checked access; the
    /// 4096-server stress rows show backend *structure* still dominating
    /// (flat vs splay differ by double digits through the vtable), so
    /// the open backend layer is worth the indirection. Revisit with an
    /// enum wrapper only if a profile ever shows the call itself.
    pub fn build(self) -> Box<dyn ObjectTable> {
        match self {
            TableKind::Splay => Box::new(SplayTable::new()),
            TableKind::BTree => Box::new(BTreeTable::new()),
            TableKind::Flat => Box::new(FlatTable::new()),
            TableKind::Auto => Box::new(AutoTable::new()),
        }
    }
}

/// Environment variable naming an object-table backend (unset means
/// [`TableKind::default`]). No library code reads it: bench binaries
/// parse it once in `main` through `foc-servers`' `BootSpec::from_env`,
/// and `loadbench` refuses to run while it is set.
pub const TABLE_ENV: &str = "FOC_TABLE";

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TableKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TableKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "splay" => Ok(TableKind::Splay),
            "btree" => Ok(TableKind::BTree),
            "flat" => Ok(TableKind::Flat),
            "auto" => Ok(TableKind::Auto),
            other => Err(format!(
                "unknown table backend {other:?} (expected splay, btree, flat, or auto)"
            )),
        }
    }
}

/// Address-indexed lookup of live data units.
///
/// Lookup takes `&mut self` because self-adjusting implementations (the
/// splay tree, the flat table's memo) reorganise on every query. `Send`
/// and `Debug` are supertraits so boxed tables travel with their
/// machines across farm worker threads; `Sync` so frozen boot
/// checkpoints holding a table can be shared (`Arc`) across them.
pub trait ObjectTable: fmt::Debug + Send + Sync {
    /// Clones the table behind fresh storage — the object-table half of
    /// a [`crate::MemorySpace`] checkpoint.
    fn boxed_clone(&self) -> Box<dyn ObjectTable>;

    /// Registers a live unit. The caller guarantees the range does not
    /// overlap any registered range.
    fn insert(&mut self, base: u64, size: u64, unit: UnitId);

    /// Removes the unit based at exactly `base`, returning it if present.
    fn remove(&mut self, base: u64) -> Option<Placement>;

    /// Finds the unit whose range contains `addr`.
    fn lookup(&mut self, addr: u64) -> Option<Placement>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which backend this is (reports, diagnostics).
    fn kind(&self) -> TableKind;
}

/// Object table backed by the standard library B-tree.
#[derive(Debug, Clone, Default)]
pub struct BTreeTable {
    map: BTreeMap<u64, (u64, UnitId)>,
}

impl BTreeTable {
    /// Creates an empty table.
    pub fn new() -> BTreeTable {
        BTreeTable::default()
    }
}

impl ObjectTable for BTreeTable {
    fn boxed_clone(&self) -> Box<dyn ObjectTable> {
        Box::new(self.clone())
    }

    fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        self.map.insert(base, (size, unit));
    }

    fn remove(&mut self, base: u64) -> Option<Placement> {
        self.map
            .remove(&base)
            .map(|(size, unit)| Placement { base, size, unit })
    }

    fn lookup(&mut self, addr: u64) -> Option<Placement> {
        let (&base, &(size, unit)) = self.map.range(..=addr).next_back()?;
        if addr < base + size {
            Some(Placement { base, size, unit })
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn kind(&self) -> TableKind {
        TableKind::BTree
    }
}

/// Sorted interval vector with last-hit memoization.
///
/// Entries live base-sorted in one contiguous `Vec`, so a lookup is a
/// branch-light binary search over cache-dense memory, and the
/// temporal-locality case the splay tree rotates for is served by a
/// one-entry memo instead: the index of the last hit is probed first, in
/// O(1) and with no structural writes. Inserts and removes shift the
/// tail (`memmove`), which is exactly the right trade for server-shaped
/// tables — a few hundred mostly-stable entries hammered by lookups.
#[derive(Debug, Clone, Default)]
pub struct FlatTable {
    entries: Vec<Placement>,
    /// Index of the most recent lookup hit (memo; may be stale).
    last_hit: usize,
}

impl FlatTable {
    /// Creates an empty table.
    pub fn new() -> FlatTable {
        FlatTable::default()
    }

    /// Index of the first entry with `base > addr`.
    #[inline]
    fn upper_bound(&self, addr: u64) -> usize {
        self.entries.partition_point(|p| p.base <= addr)
    }
}

impl ObjectTable for FlatTable {
    fn boxed_clone(&self) -> Box<dyn ObjectTable> {
        Box::new(self.clone())
    }

    fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        let at = self.upper_bound(base);
        self.entries.insert(at, Placement { base, size, unit });
    }

    fn remove(&mut self, base: u64) -> Option<Placement> {
        let at = self.upper_bound(base);
        if at == 0 || self.entries[at - 1].base != base {
            return None;
        }
        let removed = self.entries.remove(at - 1);
        self.last_hit = 0;
        Some(removed)
    }

    fn lookup(&mut self, addr: u64) -> Option<Placement> {
        // Memo probe: server traffic touches the same unit in runs.
        if let Some(p) = self.entries.get(self.last_hit) {
            if p.base <= addr && addr < p.base + p.size {
                return Some(*p);
            }
        }
        let at = self.upper_bound(addr);
        if at == 0 {
            return None;
        }
        let p = self.entries[at - 1];
        if addr < p.base + p.size {
            self.last_hit = at - 1;
            Some(p)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> TableKind {
        TableKind::Flat
    }
}

/// Index of a splay tree node, with `NONE` as the null sentinel.
type NodeIdx = u32;
const NONE: NodeIdx = u32::MAX;

#[derive(Debug, Clone)]
struct SplayNode {
    base: u64,
    size: u64,
    unit: UnitId,
    left: NodeIdx,
    right: NodeIdx,
}

/// Self-adjusting object table, as in the Jones & Kelly runtime.
///
/// Nodes live in a `Vec` and are addressed by index; removed slots are
/// recycled through a free list. Every lookup splays the closest entry to
/// the root, so repeated accesses to the same data unit are O(1) after the
/// first — the common case for server request processing.
#[derive(Debug, Clone, Default)]
pub struct SplayTable {
    nodes: Vec<SplayNode>,
    root: NodeIdx,
    free: Vec<NodeIdx>,
    len: usize,
}

impl SplayTable {
    /// Creates an empty table.
    pub fn new() -> SplayTable {
        SplayTable {
            nodes: Vec::new(),
            root: NONE,
            free: Vec::new(),
            len: 0,
        }
    }

    fn node(&self, i: NodeIdx) -> &SplayNode {
        &self.nodes[i as usize]
    }

    fn node_mut(&mut self, i: NodeIdx) -> &mut SplayNode {
        &mut self.nodes[i as usize]
    }

    fn alloc_node(&mut self, base: u64, size: u64, unit: UnitId) -> NodeIdx {
        let node = SplayNode {
            base,
            size,
            unit,
            left: NONE,
            right: NONE,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeIdx
        }
    }

    /// Top-down splay: reorganises the subtree rooted at `root` so the node
    /// with key `key` (or the last node on the search path) becomes the
    /// root. This is the classic Sleator–Tarjan top-down formulation.
    fn splay(&mut self, mut root: NodeIdx, key: u64) -> NodeIdx {
        if root == NONE {
            return NONE;
        }
        // `left_tail` / `right_tail` are the attachment points of the
        // assembled left and right trees; `header` slots stand in for the
        // missing parent of each.
        let mut left_head = NONE;
        let mut left_tail = NONE;
        let mut right_head = NONE;
        let mut right_tail = NONE;

        loop {
            let rb = self.node(root).base;
            if key < rb {
                let mut child = self.node(root).left;
                if child == NONE {
                    break;
                }
                if key < self.node(child).base {
                    // Zig-zig: rotate right.
                    self.node_mut(root).left = self.node(child).right;
                    self.node_mut(child).right = root;
                    root = child;
                    child = self.node(root).left;
                    if child == NONE {
                        break;
                    }
                }
                // Link right.
                if right_tail == NONE {
                    right_head = root;
                } else {
                    self.node_mut(right_tail).left = root;
                }
                right_tail = root;
                root = child;
            } else if key > rb {
                let mut child = self.node(root).right;
                if child == NONE {
                    break;
                }
                if key > self.node(child).base {
                    // Zig-zig: rotate left.
                    self.node_mut(root).right = self.node(child).left;
                    self.node_mut(child).left = root;
                    root = child;
                    child = self.node(root).right;
                    if child == NONE {
                        break;
                    }
                }
                // Link left.
                if left_tail == NONE {
                    left_head = root;
                } else {
                    self.node_mut(left_tail).right = root;
                }
                left_tail = root;
                root = child;
            } else {
                break;
            }
        }

        // Assemble.
        let root_left = self.node(root).left;
        let root_right = self.node(root).right;
        if left_tail == NONE {
            left_head = root_left;
        } else {
            self.node_mut(left_tail).right = root_left;
        }
        if right_tail == NONE {
            right_head = root_right;
        } else {
            self.node_mut(right_tail).left = root_right;
        }
        self.node_mut(root).left = left_head;
        self.node_mut(root).right = right_head;
        root
    }

    #[cfg(test)]
    fn check_bst(&self) {
        fn walk(t: &SplayTable, n: NodeIdx, lo: Option<u64>, hi: Option<u64>, count: &mut usize) {
            if n == NONE {
                return;
            }
            let node = t.node(n);
            if let Some(lo) = lo {
                assert!(node.base > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(node.base < hi, "BST order violated");
            }
            *count += 1;
            walk(t, node.left, lo, Some(node.base), count);
            walk(t, node.right, Some(node.base), hi, count);
        }
        let mut count = 0;
        walk(self, self.root, None, None, &mut count);
        assert_eq!(count, self.len, "node count mismatch");
    }
}

impl ObjectTable for SplayTable {
    fn boxed_clone(&self) -> Box<dyn ObjectTable> {
        Box::new(self.clone())
    }

    fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        let fresh = self.alloc_node(base, size, unit);
        if self.root == NONE {
            self.root = fresh;
            self.len += 1;
            return;
        }
        let root = self.splay(self.root, base);
        let rb = self.node(root).base;
        if base == rb {
            // Replace in place (the caller never does this for live units,
            // but replacement keeps the structure consistent regardless).
            let (l, r) = (self.node(root).left, self.node(root).right);
            self.node_mut(fresh).left = l;
            self.node_mut(fresh).right = r;
            self.free.push(root);
            self.root = fresh;
            return;
        }
        if base < rb {
            self.node_mut(fresh).left = self.node(root).left;
            self.node_mut(fresh).right = root;
            self.node_mut(root).left = NONE;
        } else {
            self.node_mut(fresh).right = self.node(root).right;
            self.node_mut(fresh).left = root;
            self.node_mut(root).right = NONE;
        }
        self.root = fresh;
        self.len += 1;
    }

    fn remove(&mut self, base: u64) -> Option<Placement> {
        if self.root == NONE {
            return None;
        }
        let root = self.splay(self.root, base);
        self.root = root;
        if self.node(root).base != base {
            return None;
        }
        let removed = {
            let n = self.node(root);
            Placement {
                base: n.base,
                size: n.size,
                unit: n.unit,
            }
        };
        let (left, right) = (self.node(root).left, self.node(root).right);
        self.root = if left == NONE {
            right
        } else {
            // Splay the maximum of the left subtree to its root; it then
            // has no right child and adopts `right`.
            let new_root = self.splay(left, u64::MAX);
            self.node_mut(new_root).right = right;
            new_root
        };
        self.free.push(root);
        self.len -= 1;
        Some(removed)
    }

    fn lookup(&mut self, addr: u64) -> Option<Placement> {
        if self.root == NONE {
            return None;
        }
        let root = self.splay(self.root, addr);
        self.root = root;
        let candidate = {
            let n = self.node(root);
            if n.base <= addr {
                Some(Placement {
                    base: n.base,
                    size: n.size,
                    unit: n.unit,
                })
            } else {
                None
            }
        };
        let candidate = candidate.or_else(|| {
            // Root is the successor of `addr`; the containing unit, if any,
            // is the maximum of the left subtree.
            let mut n = self.node(root).left;
            if n == NONE {
                return None;
            }
            while self.node(n).right != NONE {
                n = self.node(n).right;
            }
            let node = self.node(n);
            Some(Placement {
                base: node.base,
                size: node.size,
                unit: node.unit,
            })
        })?;
        if addr < candidate.base + candidate.size {
            Some(candidate)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> TableKind {
        TableKind::Splay
    }
}

/// Entry count at which an [`AutoTable`] promotes its flat inner table
/// to a splay tree. Chosen from the stress rows: farm-resident tables
/// sit at a few dozen entries (flat's cache-dense sweet spot), while
/// single-machine traces that blow past ~a hundred live units are deep
/// enough for the splay tree's self-adjustment to pay for itself.
pub const AUTO_PROMOTE: usize = 96;

#[derive(Debug)]
enum AutoInner {
    Flat(FlatTable),
    Splay(SplayTable),
}

/// Adaptive object table: starts as a [`FlatTable`] and promotes itself
/// in place to a [`SplayTable`] when an insert would grow it past
/// [`AUTO_PROMOTE`] entries. Promotion is one-way — a table that was
/// ever deep keeps the structure built for depth, so churn around the
/// threshold cannot thrash migrations. Used directly as a backend and
/// as the paged lookup layer's natural fallback table (shared pages are
/// few, so the fallback table stays in its flat regime).
#[derive(Debug)]
pub struct AutoTable {
    inner: AutoInner,
}

impl Default for AutoTable {
    fn default() -> AutoTable {
        AutoTable::new()
    }
}

impl AutoTable {
    /// Creates an empty table (in its flat regime).
    pub fn new() -> AutoTable {
        AutoTable {
            inner: AutoInner::Flat(FlatTable::new()),
        }
    }

    /// Which structural backend currently serves this table.
    pub fn current(&self) -> TableKind {
        match self.inner {
            AutoInner::Flat(_) => TableKind::Flat,
            AutoInner::Splay(_) => TableKind::Splay,
        }
    }
}

impl ObjectTable for AutoTable {
    fn boxed_clone(&self) -> Box<dyn ObjectTable> {
        Box::new(AutoTable {
            inner: match &self.inner {
                AutoInner::Flat(t) => AutoInner::Flat(t.clone()),
                AutoInner::Splay(t) => AutoInner::Splay(t.clone()),
            },
        })
    }

    fn insert(&mut self, base: u64, size: u64, unit: UnitId) {
        if let AutoInner::Flat(flat) = &self.inner {
            if flat.entries.len() >= AUTO_PROMOTE {
                let mut splay = SplayTable::new();
                for p in &flat.entries {
                    splay.insert(p.base, p.size, p.unit);
                }
                self.inner = AutoInner::Splay(splay);
            }
        }
        match &mut self.inner {
            AutoInner::Flat(t) => t.insert(base, size, unit),
            AutoInner::Splay(t) => t.insert(base, size, unit),
        }
    }

    fn remove(&mut self, base: u64) -> Option<Placement> {
        match &mut self.inner {
            AutoInner::Flat(t) => t.remove(base),
            AutoInner::Splay(t) => t.remove(base),
        }
    }

    fn lookup(&mut self, addr: u64) -> Option<Placement> {
        match &mut self.inner {
            AutoInner::Flat(t) => t.lookup(addr),
            AutoInner::Splay(t) => t.lookup(addr),
        }
    }

    fn len(&self) -> usize {
        match &self.inner {
            AutoInner::Flat(t) => t.len(),
            AutoInner::Splay(t) => t.len(),
        }
    }

    fn kind(&self) -> TableKind {
        TableKind::Auto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<T: ObjectTable + ?Sized>(t: &mut T) {
        t.insert(100, 10, UnitId(1));
        t.insert(200, 20, UnitId(2));
        t.insert(50, 5, UnitId(3));
        assert_eq!(t.len(), 3);

        assert_eq!(t.lookup(100).unwrap().unit, UnitId(1));
        assert_eq!(t.lookup(109).unwrap().unit, UnitId(1));
        assert_eq!(t.lookup(110), None);
        assert_eq!(t.lookup(55), None);
        assert_eq!(t.lookup(54).unwrap().unit, UnitId(3));
        assert_eq!(t.lookup(219).unwrap().unit, UnitId(2));
        assert_eq!(t.lookup(220), None);
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(u64::MAX), None);

        assert_eq!(t.remove(200).unwrap().unit, UnitId(2));
        assert_eq!(t.remove(200), None);
        assert_eq!(t.lookup(210), None);
        assert_eq!(t.len(), 2);

        // Re-insert at the removed base.
        t.insert(200, 8, UnitId(4));
        assert_eq!(t.lookup(207).unwrap().unit, UnitId(4));
        assert_eq!(t.lookup(208), None);
    }

    #[test]
    fn btree_table_basics() {
        exercise(&mut BTreeTable::new());
    }

    #[test]
    fn splay_table_basics() {
        let mut t = SplayTable::new();
        exercise(&mut t);
        t.check_bst();
    }

    #[test]
    fn flat_table_basics() {
        exercise(&mut FlatTable::new());
    }

    #[test]
    fn every_kind_builds_a_working_backend() {
        for kind in TableKind::ALL {
            let mut t = kind.build();
            assert_eq!(t.kind(), kind);
            assert!(t.is_empty());
            exercise(t.as_mut());
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TableKind::ALL {
            assert_eq!(kind.name().parse::<TableKind>().unwrap(), kind);
        }
        assert_eq!("SPLAY".parse::<TableKind>().unwrap(), TableKind::Splay);
        assert_eq!("auto".parse::<TableKind>().unwrap(), TableKind::Auto);
        assert!("avl".parse::<TableKind>().is_err());
    }

    #[test]
    fn auto_table_basics() {
        let mut t = AutoTable::new();
        exercise(&mut t);
        assert_eq!(t.kind(), TableKind::Auto);
        assert_eq!(t.current(), TableKind::Flat);
        let mut boxed = TableKind::Auto.build();
        assert_eq!(boxed.kind(), TableKind::Auto);
        exercise(boxed.as_mut());
    }

    #[test]
    fn auto_table_promotes_once_and_keeps_every_entry() {
        let mut t = AutoTable::new();
        for i in 0..(AUTO_PROMOTE as u64 + 32) {
            t.insert(i * 32, 16, UnitId(i as u32));
            let expect = if i < AUTO_PROMOTE as u64 {
                TableKind::Flat
            } else {
                TableKind::Splay
            };
            assert_eq!(t.current(), expect, "after {} inserts", i + 1);
        }
        // Every entry survived the migration, including lookups across
        // the promotion boundary and in the gaps.
        for i in 0..(AUTO_PROMOTE as u64 + 32) {
            assert_eq!(t.lookup(i * 32 + 3).unwrap().unit, UnitId(i as u32));
            assert!(t.lookup(i * 32 + 20).is_none());
        }
        // Promotion is one-way: shrinking far below the threshold keeps
        // the splay structure (no migration thrash).
        for i in 0..(AUTO_PROMOTE as u64 + 24) {
            assert!(t.remove(i * 32).is_some());
        }
        assert_eq!(t.current(), TableKind::Splay);
        assert_eq!(t.len(), 8);
        // A clone carries the promoted structure.
        let mut c = t.boxed_clone();
        assert_eq!(c.len(), 8);
        assert_eq!(
            c.lookup((AUTO_PROMOTE as u64 + 28) * 32).map(|p| p.unit),
            t.lookup((AUTO_PROMOTE as u64 + 28) * 32).map(|p| p.unit)
        );
    }

    #[test]
    fn flat_memo_survives_interleaved_mutation() {
        let mut t = FlatTable::new();
        for i in 0..64u64 {
            t.insert(i * 32, 16, UnitId(i as u32));
        }
        // Warm the memo on unit 40, then remove a lower entry (shifting
        // the memoized index) and verify lookups stay correct.
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
        assert_eq!(t.remove(10 * 32).unwrap().unit, UnitId(10));
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
        assert_eq!(t.lookup(10 * 32 + 3), None);
        // Insert below the memoized slot, shifting entries up.
        t.insert(10 * 32, 16, UnitId(99));
        assert_eq!(t.lookup(10 * 32 + 3).unwrap().unit, UnitId(99));
        assert_eq!(t.lookup(40 * 32 + 3).unwrap().unit, UnitId(40));
    }

    #[test]
    fn splay_handles_many_interleaved_ops() {
        let mut t = SplayTable::new();
        // Insert 1000 spaced units, remove every third, verify lookups.
        for i in 0..1000u64 {
            t.insert(i * 16, 8, UnitId(i as u32));
        }
        t.check_bst();
        for i in (0..1000u64).step_by(3) {
            assert!(t.remove(i * 16).is_some());
        }
        t.check_bst();
        for i in 0..1000u64 {
            let hit = t.lookup(i * 16 + 4);
            if i % 3 == 0 {
                assert!(hit.is_none(), "unit {i} should be gone");
            } else {
                assert_eq!(hit.unwrap().unit, UnitId(i as u32));
            }
            // The 8-byte gap between units never resolves.
            assert!(t.lookup(i * 16 + 12).is_none());
        }
        t.check_bst();
    }

    #[test]
    fn splay_reuses_freed_slots() {
        let mut t = SplayTable::new();
        for i in 0..64u64 {
            t.insert(i * 32, 16, UnitId(i as u32));
        }
        let nodes_before = t.nodes.len();
        for i in 0..64u64 {
            t.remove(i * 32);
        }
        for i in 0..64u64 {
            t.insert(i * 32 + 4096, 16, UnitId(i as u32 + 100));
        }
        assert_eq!(t.nodes.len(), nodes_before, "slots must be recycled");
    }
}

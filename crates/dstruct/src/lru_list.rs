//! Intrusive doubly-linked recency list over caller-owned ids.
//!
//! Every LRU simulator in the workspace needs to (1) move an entry to the
//! MRU position on a hit, (2) evict the LRU entry on a capacity miss, and
//! (3) insert a new entry at the MRU position — all in `O(1)` and without
//! allocating per access. [`LruList`] implements exactly that, and
//! [`LruList::access`] is the one routine that does all three for a
//! capacity-bounded cache.
//!
//! The list does not allocate ids: the caller keys it by the dense `u32`
//! ids of its own block table, and the list keeps one pair of links per
//! id, linked (resident) or not. So a table that already maps a block to
//! an id for other per-block state (the engine's window profile) serves
//! the LRU from the same lookup, and evicting an entry only unlinks its
//! id — the id stays the caller's.

/// End of the list.
const NIL: u32 = u32::MAX;
/// Marks an id that is not in the list (both links hold it).
const DETACHED: u32 = u32::MAX - 1;

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
}

impl Node {
    const DETACHED: Node = Node {
        prev: DETACHED,
        next: DETACHED,
    };
}

/// What [`LruList::access`] did with an id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touch {
    /// The id was linked; it moved to the MRU position.
    Hit,
    /// The id was not linked. It was linked at the MRU position (unless
    /// the capacity is 0), after the LRU id, if any, was unlinked to
    /// make room.
    Miss {
        /// The unlinked LRU id.
        evicted: Option<u32>,
    },
}

/// An intrusive LRU-order list of caller-owned `u32` ids.
///
/// Front = most recently used, back = least recently used. Links are
/// stored per id, so memory is linear in the largest id ever linked.
///
/// # Examples
///
/// ```
/// use cps_dstruct::lru_list::{LruList, Touch};
/// let mut l = LruList::new();
/// assert_eq!(l.access(7, 2), Touch::Miss { evicted: None });
/// assert_eq!(l.access(3, 2), Touch::Miss { evicted: None });
/// assert_eq!(l.access(7, 2), Touch::Hit);
/// assert_eq!(l.access(5, 2), Touch::Miss { evicted: Some(3) });
/// assert_eq!(l.iter().collect::<Vec<_>>(), vec![5, 7]);
/// assert!(!l.contains(3));
/// ```
#[derive(Clone, Debug)]
pub struct LruList {
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty list with link storage reserved for ids below
    /// `ids`.
    pub fn with_capacity(ids: usize) -> Self {
        LruList {
            nodes: Vec::with_capacity(ids),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no id is linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recently used id.
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// The least recently used id.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Whether `id` is linked.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.nodes
            .get(id as usize)
            .is_some_and(|n| n.prev != DETACHED)
    }

    /// One access of `id` in a cache of `capacity` entries: a linked id
    /// moves to the MRU position; any other is linked there, first
    /// unlinking the LRU id if the list is full. A capacity of 0 links
    /// nothing and misses every access.
    #[inline]
    pub fn access(&mut self, id: u32, capacity: usize) -> Touch {
        if self.contains(id) {
            self.move_to_front(id);
            return Touch::Hit;
        }
        if capacity == 0 {
            return Touch::Miss { evicted: None };
        }
        let evicted = if self.len >= capacity {
            self.pop_back()
        } else {
            None
        };
        self.push_front(id);
        Touch::Miss { evicted }
    }

    /// Links an unlinked `id` at the MRU position.
    ///
    /// # Panics
    /// Panics if `id` is one of the two reserved top values; in debug
    /// builds, also if `id` is already linked.
    pub fn push_front(&mut self, id: u32) {
        let i = id as usize;
        if i >= self.nodes.len() {
            assert!(id < DETACHED, "LruList id {id} is reserved");
            self.nodes.resize(i + 1, Node::DETACHED);
        }
        debug_assert!(!self.contains(id), "push_front of linked id {id}");
        self.nodes[i] = Node {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            self.nodes[self.head as usize].prev = id;
        } else {
            self.tail = id;
        }
        self.head = id;
        self.len += 1;
    }

    /// Unlinks `id` from its neighbours, leaving its own links stale.
    fn unlink(&mut self, id: u32) {
        let node = self.nodes[id as usize];
        debug_assert!(node.prev != DETACHED, "unlink of unlinked id {id}");
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
    }

    /// Moves a linked id to the MRU position.
    ///
    /// # Panics
    /// Panics (in debug builds) if `id` is not linked.
    pub fn move_to_front(&mut self, id: u32) {
        if self.head == id {
            return;
        }
        self.unlink(id);
        self.nodes[id as usize] = Node {
            prev: NIL,
            next: self.head,
        };
        // `head` is not NIL: `id` was linked and is not the head.
        self.nodes[self.head as usize].prev = id;
        self.head = id;
    }

    /// Unlinks and returns the LRU id.
    pub fn pop_back(&mut self) -> Option<u32> {
        let id = self.back()?;
        self.remove(id);
        Some(id)
    }

    /// Unlinks a linked id.
    pub fn remove(&mut self, id: u32) {
        self.unlink(id);
        self.nodes[id as usize] = Node::DETACHED;
        self.len -= 1;
    }

    /// Iterates linked ids from MRU to LRU. `O(len)`.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let out = cur;
                cur = self.nodes[cur as usize].next;
                out
            })
        })
    }

    /// Unlinks every id.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Internal consistency check used by tests: forward and backward
    /// traversals agree and match `len`, and exactly the listed ids
    /// are linked.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let fwd: Vec<u32> = self.iter().collect();
        assert_eq!(fwd.len(), self.len, "len mismatch");
        let mut back = Vec::new();
        let mut cur = self.tail;
        while cur != NIL {
            back.push(cur);
            cur = self.nodes[cur as usize].prev;
        }
        back.reverse();
        assert_eq!(fwd, back, "forward/backward traversal mismatch");
        let linked = (0..self.nodes.len() as u32)
            .filter(|&id| self.contains(id))
            .count();
        assert_eq!(linked, self.len, "linked ids off the list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(ids: &[u32]) -> LruList {
        let mut l = LruList::new();
        for &id in ids {
            l.push_front(id);
        }
        l
    }

    #[test]
    fn push_and_order() {
        let l = list(&[4, 0, 9]);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![9, 0, 4]);
        assert_eq!(l.front(), Some(9));
        assert_eq!(l.back(), Some(4));
        assert!(l.contains(0) && !l.contains(1) && !l.contains(100));
        l.check_invariants();
    }

    #[test]
    fn move_to_front_middle_and_tail() {
        let mut l = list(&[0, 1, 2]);
        l.move_to_front(1); // middle
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0]);
        l.move_to_front(0); // tail
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        l.move_to_front(0); // already front: no-op
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        l.check_invariants();
    }

    #[test]
    fn pop_back_until_empty() {
        let mut l = list(&[5, 6]);
        assert_eq!(l.pop_back(), Some(5));
        l.check_invariants();
        assert_eq!(l.pop_back(), Some(6));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
        assert_eq!((l.front(), l.back()), (None, None));
        assert!(!l.contains(5) && !l.contains(6));
    }

    #[test]
    fn an_unlinked_id_links_again() {
        let mut l = list(&[1, 2]);
        l.remove(1);
        assert!(!l.contains(1));
        l.push_front(1);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2]);
        l.check_invariants();
    }

    #[test]
    fn access_is_a_capacity_bounded_lru() {
        let mut l = LruList::new();
        assert_eq!(l.access(1, 0), Touch::Miss { evicted: None });
        assert!(l.is_empty(), "capacity 0 links nothing");
        for id in [1, 2, 3] {
            assert_eq!(l.access(id, 3), Touch::Miss { evicted: None });
        }
        assert_eq!(l.access(1, 3), Touch::Hit);
        assert_eq!(l.access(4, 3), Touch::Miss { evicted: Some(2) });
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![4, 1, 3]);
        l.check_invariants();
    }

    #[test]
    fn stress_against_vecdeque() {
        use std::collections::VecDeque;
        let mut l = LruList::new();
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        let mut x: u64 = 12345;
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (x >> 40) as u32 % 64;
            match x % 4 {
                0 | 1 => {
                    let cap = (x >> 20) as usize % 12;
                    let hit = model.contains(&id);
                    let evicted = (!hit && cap > 0 && model.len() >= cap)
                        .then(|| model.pop_back())
                        .flatten();
                    if hit {
                        model.retain(|&m| m != id);
                    }
                    if hit || cap > 0 {
                        model.push_front(id);
                    }
                    let expect = if hit {
                        Touch::Hit
                    } else {
                        Touch::Miss { evicted }
                    };
                    assert_eq!(l.access(id, cap), expect, "step {step}");
                }
                2 => assert_eq!(l.pop_back(), model.pop_back(), "step {step}"),
                _ => {
                    if let Some(&id) = model.get(id as usize % model.len().max(1)) {
                        l.move_to_front(id);
                        model.retain(|&m| m != id);
                        model.push_front(id);
                    }
                }
            }
            assert_eq!(l.len(), model.len());
        }
        l.check_invariants();
        assert_eq!(l.iter().collect::<Vec<_>>(), Vec::from(model));
    }
}

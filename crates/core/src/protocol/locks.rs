//! The anti-cycle lock rule of phase 2 (§3.2).
//!
//! "To speed-up this phase, we try to avoid cycles due to groups of peers
//! moving in loops among the same set of clusters. To achieve this, we
//! enforce the following rule: if peer p ∈ ci moves to cj, then ci is
//! locked with direction *leave* and cj with direction *join*. In the
//! same round, no more peers can join ci or leave cj."

use std::collections::HashSet;

use recluster_types::ClusterId;

use super::RelocationRequest;

/// What phase 2 decides for one request of the sorted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Granted: the move executes and both locks are installed.
    Granted,
    /// A request to stay put (`src == dst`): never granted.
    SelfMove,
    /// Denied: the destination lost a peer this round, so it is locked
    /// against joins.
    JoinLocked,
    /// Denied: the source gained a peer this round, so it is locked
    /// against leaves.
    LeaveLocked,
}

/// Round-scoped cluster locks.
///
/// Phase 2 is one [`LockSet::admit`] call per request, in sorted order;
/// the shared-state engine and every representative of the message
/// runtime run exactly this step, so the two drivers cannot disagree on
/// a grant.
///
/// # Examples
/// ```
/// use recluster_core::protocol::{LockSet, Verdict};
/// use recluster_core::RelocationRequest;
/// use recluster_types::{ClusterId, PeerId};
///
/// let req = |src, dst| RelocationRequest {
///     src: ClusterId(src),
///     dst: ClusterId(dst),
///     peer: PeerId(0),
///     gain: 1.0,
/// };
/// let mut locks = LockSet::new();
/// assert_eq!(locks.admit(&req(0, 1), true), Verdict::Granted);
/// assert_eq!(locks.admit(&req(2, 0), true), Verdict::JoinLocked); // c0 lost a peer
/// assert_eq!(locks.admit(&req(1, 2), true), Verdict::LeaveLocked); // c1 gained one
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockSet {
    /// Clusters that lost a peer this round: no one may *join* them.
    no_join: HashSet<ClusterId>,
    /// Clusters that gained a peer this round: no one may *leave* them.
    no_leave: HashSet<ClusterId>,
}

impl LockSet {
    /// An empty lock set (fresh round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a request `src → dst` may still be granted.
    pub fn admissible(&self, src: ClusterId, dst: ClusterId) -> bool {
        !self.no_leave.contains(&src) && !self.no_join.contains(&dst)
    }

    /// The phase-2 step for the next request of the sorted list: skips
    /// a self-move, checks the lock rule (unless `use_locks` is off, the
    /// ablation that grants every real move), and on a grant installs
    /// both locks.
    pub fn admit(&mut self, req: &RelocationRequest, use_locks: bool) -> Verdict {
        if req.src == req.dst {
            return Verdict::SelfMove;
        }
        if use_locks && !self.admissible(req.src, req.dst) {
            return if self.leave_locked(req.src) {
                Verdict::LeaveLocked
            } else {
                Verdict::JoinLocked
            };
        }
        self.grant(req.src, req.dst);
        Verdict::Granted
    }

    /// Records a granted request `src → dst`, installing both locks.
    pub fn grant(&mut self, src: ClusterId, dst: ClusterId) {
        self.no_join.insert(src);
        self.no_leave.insert(dst);
    }

    /// Whether cluster `c` is locked against joins.
    pub fn join_locked(&self, c: ClusterId) -> bool {
        self.no_join.contains(&c)
    }

    /// Whether cluster `c` is locked against leaves.
    pub fn leave_locked(&self, c: ClusterId) -> bool {
        self.no_leave.contains(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_types::PeerId;

    fn req(src: u32, dst: u32) -> RelocationRequest {
        RelocationRequest {
            src: ClusterId(src),
            dst: ClusterId(dst),
            peer: PeerId(7),
            gain: 0.5,
        }
    }

    #[test]
    fn admit_grants_and_installs_both_locks() {
        let mut locks = LockSet::new();
        assert!(locks.admissible(ClusterId(0), ClusterId(1)));
        assert_eq!(locks.admit(&req(0, 1), true), Verdict::Granted);
        assert!(locks.join_locked(ClusterId(0)) && locks.leave_locked(ClusterId(1)));
        // More leaves from c0 and more joins to c1 stay admissible.
        assert_eq!(locks.admit(&req(0, 2), true), Verdict::Granted);
        assert!(locks.leave_locked(ClusterId(2)));
        assert_eq!(locks.admit(&req(3, 1), true), Verdict::Granted);
    }

    #[test]
    fn admit_denies_by_the_lock_rule() {
        // c0 → c1 granted: joining c0 and leaving c1 are blocked, which
        // stops both the swap c1 → c0 and the 3-cycle step c1 → c2.
        let mut locks = LockSet::new();
        locks.admit(&req(0, 1), true);
        assert_eq!(locks.admit(&req(2, 0), true), Verdict::JoinLocked);
        assert_eq!(locks.admit(&req(1, 2), true), Verdict::LeaveLocked);
        assert_eq!(locks.admit(&req(1, 0), true), Verdict::LeaveLocked);
        // A denial installs nothing: c2 may still be left.
        assert_eq!(locks.admit(&req(2, 3), true), Verdict::Granted);
    }

    #[test]
    fn admit_skips_self_moves_without_locking() {
        let mut locks = LockSet::new();
        for use_locks in [true, false] {
            assert_eq!(locks.admit(&req(2, 2), use_locks), Verdict::SelfMove);
        }
        assert!(!locks.join_locked(ClusterId(2)) && !locks.leave_locked(ClusterId(2)));
    }

    #[test]
    fn admit_with_locks_off_grants_every_real_move() {
        let mut locks = LockSet::new();
        for (src, dst) in [(0, 1), (1, 0), (2, 0)] {
            assert_eq!(locks.admit(&req(src, dst), false), Verdict::Granted);
        }
        // The locks are still recorded.
        assert_eq!(locks.admit(&req(1, 2), true), Verdict::LeaveLocked);
    }

    #[test]
    fn no_round_can_both_join_and_leave_a_locked_pair() {
        // Exhaustive over small id space: after any grant (a→b), any
        // admissible follow-up (s→d) must satisfy d ≠ a and s ≠ b.
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a == b {
                    continue;
                }
                let mut locks = LockSet::new();
                locks.grant(ClusterId(a), ClusterId(b));
                for s in 0..4u32 {
                    for d in 0..4u32 {
                        if s == d {
                            continue;
                        }
                        if locks.admissible(ClusterId(s), ClusterId(d)) {
                            assert_ne!(d, a, "join into leave-locked {a}");
                            assert_ne!(s, b, "leave from join-locked {b}");
                        }
                    }
                }
            }
        }
    }
}

//! Fixed-capacity Chase–Lev work-stealing deque.
//!
//! One deque per worker. The **owner** pushes and pops at the *bottom*
//! (LIFO, cache-hot); **thieves** remove items from the *top* (FIFO,
//! oldest work first) by compare-and-swapping the top index. The buffer
//! never grows: `top`/`bottom` are monotonically increasing indices mapped
//! onto a power-of-two ring, and a full deque rejects the push so the
//! scheduler can spill to the global injector instead. Fixing the capacity
//! sidesteps the buffer-reclamation problem of the classic growable
//! Chase–Lev deque — there is exactly one buffer for the deque's lifetime,
//! so a thief can never observe a freed allocation.
//!
//! A batch steal is a sequence of classic single-item Chase–Lev steals:
//! every claim reads `bottom` after a `SeqCst` fence, copies slot `top`,
//! and keeps the copy only if its CAS `top → top + 1` wins (crossbeam's
//! LIFO `steal_batch` works the same way). Claiming one index per CAS is
//! what keeps the owner's CAS-free pop sound: the owner takes an index
//! above `top` without a CAS, and a thief may only claim an index it has
//! seen below a `bottom` read *after* its own fence. A window claimed in
//! one CAS from an earlier `bottom` read would let the owner pop into it,
//! and both sides would then own the same item. A failed CAS abandons its
//! copy with [`std::mem::forget`] (never dropped, never read). Each unsafe
//! block below carries its own `SAFETY:` note spelling out the local half
//! of this argument.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, Ordering};

/// How many times a thief retries a CAS-contended victim before giving up
/// and letting the scheduler move on to the next victim.
const STEAL_RETRIES: usize = 4;

/// Fixed-capacity work-stealing deque (see module docs for the protocol).
pub(crate) struct Deque<T> {
    /// Next index a thief will steal. Monotonically increasing; never
    /// reused, so the `top` CAS is immune to ABA.
    top: AtomicIsize,
    /// Next index the owner will push. Only the owner writes it.
    bottom: AtomicIsize,
    /// Ring buffer; slot for index `i` is `buf[i & mask]`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
}

// SAFETY: the deque hands `T`s across threads (owner pushes, thief pops),
// which is exactly the `T: Send` bound. Shared access to the UnsafeCell
// slots is arbitrated by the top-CAS protocol described in the module docs.
unsafe impl<T: Send> Sync for Deque<T> {}
// SAFETY: moving the whole deque moves the owned buffer; `T: Send` suffices.
unsafe impl<T: Send> Send for Deque<T> {}

impl<T> Deque<T> {
    /// New empty deque with `capacity` rounded up to a power of two, min 2.
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        Deque { top: AtomicIsize::new(0), bottom: AtomicIsize::new(0), buf, mask: cap - 1 }
    }

    /// Copy the value out of slot `i` without marking it uninitialized.
    ///
    /// SAFETY: index `i` must hold an initialized value, and the caller must
    /// own the slot via `top`-protocol exclusivity — or be a thief that
    /// `forget`s the copy unless its `top` CAS from the pre-read value wins.
    unsafe fn read_at(&self, i: isize) -> T {
        (*self.buf[i as usize & self.mask].get()).assume_init_read()
    }

    /// Owner-side push at the bottom. Returns the item back when the ring
    /// is full so the caller can spill it to the injector.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        // hyppo-lint: allow(relaxed-ordering-justified) only the owner writes `bottom`; it re-reads its own last store
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) >= (self.mask as isize + 1) {
            return Err(item);
        }
        // Thieves only touch indices < `bottom`, and `bottom` has not yet
        // advanced past `b`; writing through MaybeUninit does not drop — the
        // slot's previous occupant (if any) was moved out when it was popped
        // or stolen.
        // SAFETY: `b - t < capacity`, so slot `b & mask` is not aliased by
        // any live index in `t..b` (see the thief/drop argument above).
        unsafe { (*self.buf[b as usize & self.mask].get()).write(item) };
        // Release: pairs with the thief's Acquire load of `bottom`, which
        // publishes the slot write above before the index becomes visible.
        self.bottom.store(b.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Owner-side pop at the bottom (LIFO).
    pub(crate) fn pop(&self) -> Option<T> {
        // hyppo-lint: allow(relaxed-ordering-justified) owner-only index; the SeqCst fence below orders it against thief CASes
        let b = self.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        // hyppo-lint: allow(relaxed-ordering-justified) reservation store; made globally visible by the SeqCst fence below
        self.bottom.store(b, Ordering::Relaxed);
        // The fence makes the speculative `bottom` decrement visible before
        // we read `top`: either a racing thief sees our reservation, or we
        // see its CAS — the classic Chase–Lev owner/thief arbitration.
        fence(Ordering::SeqCst);
        // hyppo-lint: allow(relaxed-ordering-justified) ordered by the SeqCst fence above
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: undo the reservation.
            // hyppo-lint: allow(relaxed-ordering-justified) owner-only restore of its own index
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        if t == b {
            // Last element: race thieves for it via the top CAS.
            let won = self
                .top
                // hyppo-lint: allow(relaxed-ordering-justified) single-slot arbitration CAS; winner has exclusive slot access (module docs), failure needs no ordering
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            // hyppo-lint: allow(relaxed-ordering-justified) owner-only restore of its own index
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            if won {
                // SAFETY: we won the CAS, so no thief holds or will take
                // index `b`; the owner itself wrote the slot (same-thread
                // happens-before).
                return Some(unsafe { self.read_at(b) });
            }
            return None;
        }
        // SAFETY: `t < b` after the fence; a thief claims `b` only after its
        // own fence reads `bottom > b` — impossible once our reservation is
        // ordered first (module docs). The owner wrote the slot itself.
        Some(unsafe { self.read_at(b) })
    }

    /// Thief-side batch steal: move up to `max` items (at most half the
    /// victim's visible work, at least one) from the top into `out`, one
    /// CAS per item. Returns how many were stolen; `0` means the victim was
    /// empty or too contended to bother with.
    pub(crate) fn steal_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        debug_assert!(max > 0);
        for _ in 0..STEAL_RETRIES {
            let mut t = self.top.load(Ordering::Acquire);
            // Order the `top` read before the `bottom` read so the window
            // `[t, b)` is never widened by reordering; pairs with the
            // owner's pop fence.
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            let available = b.wrapping_sub(t);
            if available <= 0 {
                return 0;
            }
            // Take at most half (rounded up) so the victim keeps making
            // progress on its own work.
            let want = (available as usize).div_ceil(2).min(max);
            let mut taken = 0;
            while taken < want {
                // Every claim after the first re-reads `bottom`: the owner
                // may have popped into `[t, b)` since the read above. Our
                // last CAS wrote `top == t` before this fence, so the
                // owner's pop fence sees either our claim or we its pop.
                if taken > 0 {
                    fence(Ordering::SeqCst);
                    if self.bottom.load(Ordering::Acquire).wrapping_sub(t) <= 0 {
                        break;
                    }
                }
                // SAFETY: `t < bottom` as read after the fence, so slot `t`
                // was published (Acquire on `bottom`); the copy is kept only
                // if the CAS from `t` wins, and forgotten otherwise.
                let item = unsafe { self.read_at(t) };
                if self
                    .top
                    // hyppo-lint: allow(relaxed-ordering-justified) single-item claim CAS; success transfers slot ownership (module docs), failure forgets the copy so no ordering is needed
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // Lost the race: another thief (or the owner's
                    // last-element pop) advanced `top`. The copy was never
                    // ours.
                    std::mem::forget(item);
                    break;
                }
                out.push(item);
                t = t.wrapping_add(1);
                taken += 1;
            }
            if taken > 0 {
                return taken;
            }
        }
        0
    }
}

impl<T> Drop for Deque<T> {
    fn drop(&mut self) {
        // `&mut self` proves exclusivity: no owner or thief is live, so
        // every index in `[top, bottom)` holds an initialized value that
        // was never moved out.
        // hyppo-lint: allow(relaxed-ordering-justified) exclusive access via &mut self; no concurrent observers remain
        let t = self.top.load(Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) exclusive access via &mut self; no concurrent observers remain
        let b = self.bottom.load(Ordering::Relaxed);
        let mut i = t;
        while i != b {
            // SAFETY: exclusive access (see above); `[t, b)` is exactly the
            // set of initialized, un-taken slots.
            unsafe {
                drop(self.read_at(i));
            }
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let d: Deque<u32> = Deque::new(8);
        for i in 0..5 {
            d.push(i).unwrap();
        }
        for i in (0..5).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn full_deque_returns_item_for_spill() {
        let d: Deque<u32> = Deque::new(2);
        d.push(1).unwrap();
        d.push(2).unwrap();
        assert_eq!(d.push(3), Err(3), "capacity-2 ring is full");
        assert_eq!(d.pop(), Some(2));
        d.push(3).unwrap();
    }

    #[test]
    fn steal_takes_half_from_the_top() {
        let d: Deque<u32> = Deque::new(16);
        for i in 0..8 {
            d.push(i).unwrap();
        }
        let mut out = Vec::new();
        let n = d.steal_into(&mut out, 16);
        assert_eq!(n, 4, "steals half of 8");
        assert_eq!(out, vec![0, 1, 2, 3], "oldest items, FIFO from the top");
        assert_eq!(d.pop(), Some(7), "owner still pops newest");
    }

    #[test]
    fn steal_from_empty_is_zero() {
        let d: Deque<u32> = Deque::new(4);
        let mut out = Vec::new();
        assert_eq!(d.steal_into(&mut out, 4), 0);
        assert!(out.is_empty());
        d.push(9).unwrap();
        assert_eq!(d.pop(), Some(9));
        assert_eq!(d.steal_into(&mut out, 4), 0, "drained deque steals empty again");
    }

    #[test]
    fn drop_releases_leftover_items() {
        use std::rc::Rc;
        // Rc is !Send but this test never crosses threads; count the drops.
        let token = Rc::new(());
        {
            let d: Deque<Rc<()>> = Deque::new(8);
            for _ in 0..5 {
                d.push(Rc::clone(&token)).unwrap();
            }
            assert_eq!(Rc::strong_count(&token), 6);
            let _ = d.pop();
            // 4 items left inside at drop.
        }
        assert_eq!(Rc::strong_count(&token), 1, "deque drop released its slots");
    }

    #[test]
    fn concurrent_owner_and_thieves_account_for_every_item() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as O};
        let d: Deque<u64> = Deque::new(8);
        let sum = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        const N: u64 = 10_000;
        std::thread::scope(|scope| {
            // Two thieves hammer the top while the owner pushes/pops. They
            // exit only once the owner has drained the deque empty and
            // raised `done` — a contended 0-steal before that just retries.
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        out.clear();
                        let n = d.steal_into(&mut out, 4);
                        for v in out.drain(..) {
                            sum.fetch_add(v, O::SeqCst);
                        }
                        if n == 0 {
                            if done.load(O::SeqCst) {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Owner: push 1..=N (popping when full), popping occasionally
            // so both removal paths race the thieves.
            let mut popped_sum = 0u64;
            for v in 1..=N {
                let mut item = v;
                loop {
                    match d.push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            if let Some(p) = d.pop() {
                                popped_sum += p;
                            }
                        }
                    }
                }
                if v % 3 == 0 {
                    if let Some(p) = d.pop() {
                        popped_sum += p;
                    }
                }
            }
            // Drain what's left; once pop() sees empty nothing can reappear
            // (only the owner pushes), so `done` is safe to raise.
            while let Some(p) = d.pop() {
                popped_sum += p;
            }
            sum.fetch_add(popped_sum, O::SeqCst);
            done.store(true, O::SeqCst);
        });
        // Every item 1..=N was counted exactly once, by owner or thief.
        assert_eq!(sum.load(O::SeqCst), N * (N + 1) / 2);
    }
}

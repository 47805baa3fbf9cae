//! One compile per run: a process-wide memo in front of [`compile_with`].
//!
//! [`compile_with`] is a pure function of `(Program, nprocs, Policy)`, and
//! SPMD allocation makes that key identical on every processor of a run (the
//! arrays' base addresses are program-wide constants). So the processors
//! of a run can share one [`CompiledKernel`] instead of each re-running
//! the analysis: the first caller compiles, every other caller with an
//! equal key gets the same `Arc`.
//!
//! The memo holds only [`Weak`] references, so a kernel lives exactly as
//! long as some caller still holds it; dead entries are pruned whenever a
//! new key is inserted. Callers racing on one key wait on that key's slot
//! while one of them compiles — the memo's own lock is never held across a
//! compile, so different kernels still compile in parallel. A compile that
//! panics leaves its slot empty: every waiter then compiles (and panics)
//! itself, and no other key is affected.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::ir::Program;
use crate::plan::{compile_with, CompiledKernel, Policy};

/// One key's slot: the kernel, while anyone holds it.
type Slot = Mutex<Weak<CompiledKernel>>;

/// A memo entry: the full key and its slot.
struct Entry {
    program: Program,
    nprocs: usize,
    policy: Policy,
    slot: Arc<Slot>,
}

impl Entry {
    /// Whether the entry may still be needed: a caller is between lookup
    /// and return (it holds a clone of the slot), or the kernel is alive.
    fn is_live(&self) -> bool {
        Arc::strong_count(&self.slot) > 1 || lock(&self.slot).strong_count() > 0
    }
}

static MEMO: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Locks `mutex`, ignoring poison: no update under either lock is ever left
/// half-done. A panicking compile leaves its slot's `Weak` empty, which
/// every later caller already treats as "compile me", and the memo's own
/// updates (find, prune, push) do not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`compile_with`] once per `(program, nprocs, policy)` among concurrent
/// callers: every caller whose key equals a kernel that is still held gets
/// that kernel's `Arc` (pointer-equal), and only the first caller compiles.
///
/// # Panics
///
/// Exactly when [`compile_with`] panics on the same input — in every
/// caller.
pub fn compile_shared(program: &Program, nprocs: usize, policy: Policy) -> Arc<CompiledKernel> {
    let slot = {
        let mut memo = lock(&MEMO);
        match memo
            .iter()
            .find(|e| e.nprocs == nprocs && e.policy == policy && e.program == *program)
        {
            Some(entry) => Arc::clone(&entry.slot),
            None => {
                memo.retain(Entry::is_live);
                let slot = Arc::new(Mutex::new(Weak::new()));
                memo.push(Entry {
                    program: program.clone(),
                    nprocs,
                    policy,
                    slot: Arc::clone(&slot),
                });
                slot
            }
        }
    };
    let mut held = lock(&slot);
    if let Some(kernel) = held.upgrade() {
        return kernel;
    }
    let kernel = Arc::new(compile_with(program, nprocs, policy));
    *held = Arc::downgrade(&kernel);
    kernel
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::thread;

    use pagedmem::Addr;

    use super::*;
    use crate::ir::{Access, ArrayDecl, ColSpan, Node, Phase, SectionAccess};
    use crate::plan::compile;

    /// A Jacobi-shaped program; every test uses its own `base` so the
    /// tests' keys never collide in the process-wide memo.
    fn stencil(base: usize, cols: usize, iters: usize) -> Program {
        let decl =
            |name, base| ArrayDecl { name, base: Addr::new(base), rows: 64, cols, elem_bytes: 8 };
        let sweep = |name, src, dst| {
            Phase::new(
                name,
                vec![
                    SectionAccess::new(src, ColSpan::UpdateHalo(1), Access::Read),
                    SectionAccess::new(dst, ColSpan::UpdateBlock, Access::WriteAll),
                ],
            )
        };
        Program {
            arrays: vec![decl("a", base), decl("b", base + (1 << 20))],
            nodes: vec![Node::Repeat {
                times: iters,
                body: vec![sweep("ab", 0, 1), sweep("ba", 1, 0)],
            }],
        }
    }

    /// Whether the memo still has an entry for the key.
    fn has_entry(program: &Program, nprocs: usize) -> bool {
        lock(&MEMO).iter().any(|e| e.nprocs == nprocs && e.program == *program)
    }

    #[test]
    fn concurrent_callers_share_one_kernel_equal_to_a_plain_compile() {
        let program = stencil(1 << 24, 64, 2);
        let start = Barrier::new(16);
        let kernels: Vec<Arc<CompiledKernel>> = thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        compile_shared(&program, 8, Policy::Full)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(kernels.iter().all(|k| Arc::ptr_eq(k, &kernels[0])), "one kernel for all");
        assert_eq!(*kernels[0], compile(&program, 8));
    }

    #[test]
    fn keys_differing_in_nprocs_base_or_iters_get_distinct_kernels() {
        let base = 2 << 24;
        let reference = compile_shared(&stencil(base, 64, 2), 8, Policy::Full);
        for (program, nprocs) in [
            (stencil(base, 64, 2), 4),
            (stencil(base + (4 << 20), 64, 2), 8),
            (stencil(base, 64, 3), 8),
        ] {
            let other = compile_shared(&program, nprocs, Policy::Full);
            assert!(!Arc::ptr_eq(&reference, &other));
            assert_eq!(*other, compile(&program, nprocs));
        }
        assert!(Arc::ptr_eq(&reference, &compile_shared(&stencil(base, 64, 2), 8, Policy::Full)));
    }

    #[test]
    fn the_policy_is_part_of_the_key() {
        let program = stencil(5 << 24, 64, 2);
        let full = compile_shared(&program, 8, Policy::Full);
        let validate = compile_shared(&program, 8, Policy::Validate);
        assert!(!Arc::ptr_eq(&full, &validate));
        assert_eq!(*full, compile(&program, 8));
        assert_eq!(*validate, compile_with(&program, 8, Policy::Validate));
        assert_ne!(*full, *validate, "a stencil compiles to pushes only under Full");
        assert!(Arc::ptr_eq(&validate, &compile_shared(&program, 8, Policy::Validate)));
    }

    #[test]
    fn dropping_every_kernel_leaves_no_live_entry() {
        let program = stencil(3 << 24, 64, 2);
        let first = compile_shared(&program, 8, Policy::Full);
        let second = compile_shared(&program, 8, Policy::Full);
        assert!(Arc::ptr_eq(&first, &second));
        let weak = Arc::downgrade(&first);
        drop((first, second));
        assert!(weak.upgrade().is_none(), "the memo holds no strong reference");
        // The next insert prunes the dead entry.
        let _other = compile_shared(&stencil(3 << 24, 64, 3), 8, Policy::Full);
        assert!(!has_entry(&program, 8), "the dead entry was pruned");
        // A later caller simply compiles afresh.
        assert_eq!(*compile_shared(&program, 8, Policy::Full), compile(&program, 8));
    }

    #[test]
    fn a_panicking_compile_panics_every_caller_and_poisons_nothing() {
        // 16 columns cannot give 16 processors two columns each.
        let bad = stencil(4 << 24, 16, 2);
        let start = Barrier::new(8);
        let outcomes: Vec<bool> = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        compile_shared(&bad, 16, Policy::Full)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().is_err()).collect()
        });
        assert_eq!(outcomes, vec![true; 8], "every concurrent caller panics");
        // The failed key still panics, and a valid key is unaffected.
        assert!(thread::spawn(move || compile_shared(&bad, 16, Policy::Full)).join().is_err());
        let good = stencil(4 << 24, 64, 2);
        assert_eq!(*compile_shared(&good, 16, Policy::Full), compile(&good, 16));
    }
}

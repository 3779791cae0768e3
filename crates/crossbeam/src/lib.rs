//! Scoped threads for the `hdp-osr` workspace.
//!
//! Self-contained stand-in for the subset of the `crossbeam 0.8` API the
//! workspace uses (`crossbeam::thread::scope` + `Scope::spawn`). The build
//! environment has no access to crates.io, so the real `crossbeam` cannot be
//! fetched; since Rust 1.63 the standard library's [`std::thread::scope`]
//! provides the same structured-concurrency guarantee, so the shim is a thin
//! signature adapter over it.
//!
//! One behavioral difference: when a spawned thread panics, crossbeam's
//! `scope` returns `Err(payload)` while `std::thread::scope` resumes the
//! panic on the host thread. Every call site in this workspace turns an
//! `Err` back into a panic (`.expect(…)` or `resume_unwind`), so both
//! designs end in the same panic; the serving executor also catches each
//! item's panic inside its workers, so none reaches its scope.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Scoped-thread API mirroring `crossbeam::thread`.
pub mod thread {
    /// A scope handle: threads spawned through it may borrow from the
    /// enclosing stack frame and are all joined before `scope` returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped thread. The closure receives the scope again so it
        /// can spawn further siblings, mirroring crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner: &'scope std::thread::Scope<'scope, 'env> = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Create a scope for spawning borrowing threads; all threads are joined
    /// before this returns.
    ///
    /// # Errors
    /// The real crossbeam returns `Err` with the panic payload of a panicked
    /// child; this shim instead resumes the child's panic directly (see the
    /// crate docs), so an `Err` is never actually produced.
    #[allow(clippy::missing_panics_doc)]
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }

    #[cfg(test)]
    mod tests {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn scoped_threads_borrow_and_join() {
            let counter = AtomicUsize::new(0);
            let data = [1usize, 2, 3, 4];
            let result = super::scope(|s| {
                for chunk in data.chunks(2) {
                    s.spawn(|_| {
                        counter.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                    });
                }
                7
            })
            .expect("no panics");
            assert_eq!(result, 7);
            assert_eq!(counter.load(Ordering::Relaxed), 10);
        }

        #[test]
        fn nested_spawn_through_the_scope_argument() {
            let hits = AtomicUsize::new(0);
            super::scope(|s| {
                s.spawn(|s2| {
                    s2.spawn(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            })
            .expect("no panics");
            assert_eq!(hits.load(Ordering::Relaxed), 2);
        }
    }
}

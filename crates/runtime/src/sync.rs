//! Poison-recovering lock guards.
//!
//! A panic while a `std` lock is held poisons it, and every later
//! `lock().unwrap()` panics too — one failed request would then disable
//! every path through that lock for the life of the process. These
//! helpers take the guard regardless of poisoning. Use them only where
//! the protected state stays valid across a panic: every critical
//! section either completes one whole-value update (a map insert, a
//! swap, a clear) or does not start it.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the guard if a holder panicked.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock an `RwLock`, recovering the guard if a writer panicked.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock an `RwLock`, recovering the guard if a holder panicked.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_survive_a_panicking_holder() {
        let mutex = Mutex::new(1);
        let rw = RwLock::new(2);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _m = lock(&mutex);
                let _w = write(&rw);
                panic!("holder panics with both locks held");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned() && rw.is_poisoned());
        *lock(&mutex) += 1;
        *write(&rw) += 1;
        assert_eq!((*lock(&mutex), *read(&rw)), (2, 3));
    }
}

//! D007 failing fixture: a positioned file read while the `pool` guard
//! is live — bound through a guard accessor, the `PagedIndex::lock_pager`
//! shape. `read_exact_at` moves no cursor but it is a disk trip all the
//! same, and every thread that only wants a pool hit waits it out.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::{Mutex, MutexGuard, PoisonError};

pub struct Pager {
    pool: Mutex<Vec<Vec<u8>>>,
    file: File,
}

impl Pager {
    fn lock_pool(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn fault(&self, offset: u64) {
        let mut pool = self.lock_pool();
        let mut block = vec![0u8; 4096];
        if self.file.read_exact_at(&mut block, offset).is_ok() {
            pool.push(block);
        }
    }
}

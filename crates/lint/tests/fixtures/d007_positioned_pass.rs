//! D007 passing fixture: the positioned read runs with no guard live,
//! and the pool is locked — through the same guard accessor — only to
//! admit the block.

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
        let resident = self.lock_pool().len();
        let mut block = vec![0u8; 4096];
        if resident < 8 && self.file.read_exact_at(&mut block, offset).is_ok() {
            let mut pool = self.lock_pool();
            pool.push(block);
        }
    }
}

//! D006 failing fixture: the pool's residency record taken the wrong way.
//!
//! The pool writes a page's record through a private helper chain
//! (`admit` → `install` → `set_resident`), called under the pager by
//! `fault`: the edge `pager → residency` every admission makes.
//! `serve_and_count` reads a record and, with that guard still live,
//! takes the pager to count the hit — `residency → pager`, which closes
//! the cycle.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

pub struct Pool {
    records: Vec<RwLock<Option<Arc<Vec<u8>>>>>,
    hits: u64,
}

impl Pool {
    fn residency(&self, page: u32) -> &RwLock<Option<Arc<Vec<u8>>>> {
        &self.records[page as usize]
    }

    fn set_resident(&self, page: u32, bytes: Option<Arc<Vec<u8>>>) {
        let mut record = self.residency(page).write();
        *record = bytes;
    }

    fn install(&mut self, page: u32, bytes: Arc<Vec<u8>>) {
        self.set_resident(page, Some(bytes));
    }

    pub fn admit(&mut self, page: u32, bytes: Arc<Vec<u8>>) {
        self.install(page, bytes);
    }
}

pub struct Index {
    pager: Mutex<Pool>,
    pool: Arc<Pool>,
}

impl Index {
    fn lock_pager(&self) -> MutexGuard<'_, Pool> {
        self.pager.lock()
    }

    pub fn fault(&self, page: u32, bytes: Arc<Vec<u8>>) {
        let mut pager = self.lock_pager();
        pager.admit(page, bytes);
    }

    pub fn serve_and_count(&self, page: u32) -> Option<Arc<Vec<u8>>> {
        let record = self.pool.residency(page).read();
        let mut pager = self.lock_pager();
        pager.hits += 1;
        drop(pager);
        record.clone()
    }
}

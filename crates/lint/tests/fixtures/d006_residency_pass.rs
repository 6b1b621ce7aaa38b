//! D006 passing fixture: the residency record as a leaf. The pool
//! writes a page's record under the pager (`fault` → `admit` →
//! `install` → `set_resident`), and a hit reads the record with no other
//! guard live, clones the bytes out and releases it before it takes the
//! pager to count the hit — so nothing is ever acquired under a record.

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
        let bytes = {
            let record = self.pool.residency(page).read();
            record.clone()
        };
        let mut pager = self.lock_pager();
        pager.hits += 1;
        drop(pager);
        bytes
    }
}

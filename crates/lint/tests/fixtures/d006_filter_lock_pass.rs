//! D006 + D008 passing fixture: the session table's discipline. The
//! stripe is locked to look the session up and to clone its filter's
//! `Arc` out, released at the end of that block, and only then is the
//! filter locked — so the stripe and the filter are never held together,
//! in `with` or in a sweep over every session, and a table operation
//! under a filter lock would not close a cycle either.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub struct Session {
    filter: Arc<Mutex<Vec<u64>>>,
}

pub struct Table {
    stripes: Mutex<BTreeMap<u64, Session>>,
}

impl Table {
    pub fn with(&self, id: u64) -> usize {
        let filter = {
            let stripes = self.stripes.lock();
            Arc::clone(&stripes.get(&id).filter)
        };
        let filter = filter.lock();
        filter.len()
    }

    pub fn resident(&self) -> usize {
        let mut filters = Vec::new();
        {
            let stripes = self.stripes.lock();
            filters.extend(stripes.values().map(|s| Arc::clone(&s.filter)));
        }
        let mut total = 0;
        for filter in &filters {
            let filter = filter.lock();
            total += filter.len();
        }
        total
    }

    pub fn sweep(&self, session: &Session) -> usize {
        let filter = session.filter.lock();
        let live = self.session_count();
        drop(filter);
        live
    }

    fn session_count(&self) -> usize {
        let stripes = self.stripes.lock();
        stripes.len()
    }
}

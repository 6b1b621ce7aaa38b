//! D006 + D008 failing fixture: the per-session filter lock taken the
//! wrong way.
//!
//! `with` keeps the stripe guard live across the filter lock — every
//! query of the stripe's other sessions then waits for this one — and
//! `sweep` calls back into the table while it holds a filter, which
//! closes the cycle `stripes → filter → stripes`. `requery` re-enters the
//! filter it already holds.

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
        let stripes = self.stripes.lock();
        let session = stripes.get(&id);
        let filter = session.filter.lock();
        filter.len()
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

    pub fn requery(&self, session: &Session) {
        let filter = session.filter.lock();
        self.mark_sent(session);
        drop(filter);
    }

    fn mark_sent(&self, session: &Session) {
        let filter = session.filter.lock();
        drop(filter);
    }
}

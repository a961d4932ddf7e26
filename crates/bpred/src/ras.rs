//! Return address stack.

/// A fixed-depth return address stack.
///
/// Pushed on calls (`jal`/`jalr`), popped on returns (`jr`). Overflow wraps
/// (oldest entry overwritten), underflow returns `None` — both standard
/// hardware behaviours.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReturnStack {
    buf: Vec<u32>,
    top: usize,
    len: usize,
}

impl ReturnStack {
    /// A stack with `depth` entries (at least 1).
    pub fn new(depth: usize) -> ReturnStack {
        assert!(depth > 0, "RAS depth must be nonzero");
        ReturnStack {
            buf: vec![0; depth],
            top: 0,
            len: 0,
        }
    }

    /// Push a return address; overwrites the oldest entry when full.
    pub fn push(&mut self, addr: u32) {
        self.buf[self.top] = addr;
        self.top = (self.top + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Pop the most recent return address.
    pub fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.top = (self.top + self.buf.len() - 1) % self.buf.len();
        self.len -= 1;
        Some(self.buf[self.top])
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.len
    }

    /// Discard everything (misprediction recovery).
    pub fn clear(&mut self) {
        self.len = 0;
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut s = ReturnStack::new(4);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut s = ReturnStack::new(2);
        s.push(1);
        s.push(2);
        s.push(3); // overwrites 1
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn clear_empties() {
        let mut s = ReturnStack::new(4);
        s.push(9);
        s.clear();
        assert_eq!(s.pop(), None);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn nested_calls_unwind_correctly() {
        let mut s = ReturnStack::new(8);
        for depth in 0..5 {
            s.push(100 + depth);
        }
        for depth in (0..5).rev() {
            assert_eq!(s.pop(), Some(100 + depth));
        }
    }
}

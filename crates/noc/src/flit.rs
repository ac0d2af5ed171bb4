//! Flit kinds — the position of a link transmission unit in its packet.
//!
//! The cycle engine never materializes a per-flit record: a flit in
//! transit is a handle to its packet's slot plus its sequence number and
//! kind (see [`crate::sim`]).

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing metadata in its payload image.
    Head,
    /// Intermediate payload flit.
    Body,
    /// Final flit; releases virtual channels as it drains.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// The kind of flit `seq` (head = 0) of a packet of `flits` flits on
    /// the wire (head included).
    #[must_use]
    #[inline]
    pub(crate) fn at(seq: u32, flits: u32) -> FlitKind {
        match (seq == 0, seq + 1 == flits) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    /// True for flits that open a packet (Head / HeadTail).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for flits that close a packet (Tail / HeadTail).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
    }

    #[test]
    fn kinds_follow_the_sequence_number() {
        let kinds: Vec<FlitKind> = (0..3).map(|seq| FlitKind::at(seq, 3)).collect();
        assert_eq!(kinds, [FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
        assert_eq!(FlitKind::at(0, 2), FlitKind::Head);
        assert_eq!(FlitKind::at(1, 2), FlitKind::Tail);
        // An empty payload is a lone head that also closes the packet.
        assert_eq!(FlitKind::at(0, 1), FlitKind::HeadTail);
    }
}

//! Flits — the unit of link transmission.

use crate::config::NodeId;
use btr_bits::payload::PayloadBits;

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

/// One flit traversing the NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Simulator-global packet id.
    pub packet_id: u64,
    /// Kind (head/body/tail).
    pub kind: FlitKind,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Sequence index within the packet (head = 0).
    pub seq: u32,
    /// The image this flit drives onto the link wires.
    pub payload: PayloadBits,
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
}

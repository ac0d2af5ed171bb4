//! Packets and the head-flit row that carries their addressing.

use crate::config::NodeId;
use btr_bits::payload::PayloadBits;
use btr_bits::slab::{row_field, set_row_field};

/// A packet awaiting injection: a head flit (metadata) followed by the
/// payload flits produced by the ordering/flitization layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload flit images, in transmission order.
    pub payload_flits: Vec<PayloadBits>,
    /// Caller-chosen correlation tag (e.g. task id); encoded into the head
    /// flit row and reported back on delivery.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, payload_flits: Vec<PayloadBits>, tag: u64) -> Self {
        Self {
            src,
            dst,
            payload_flits,
            tag,
        }
    }

    /// Total flit count on the wire (head + payload).
    #[must_use]
    pub fn flit_count(&self) -> usize {
        1 + self.payload_flits.len()
    }
}

/// Writes head-flit metadata into `row`, the head's `width`-bit wire
/// row: 16-bit src, 16-bit dst, 16-bit length, and as many tag bits as
/// fit (LSB-first fields). Every field is overwritten in full, so on a
/// row that is zero outside them (a blank row, or a previous head at the
/// same width) the result is the encoded head.
///
/// # Panics
///
/// Panics if `width` is below 48 bits or `row` does not cover it.
pub fn write_head_row(
    row: &mut [u64],
    width: u32,
    src: NodeId,
    dst: NodeId,
    num_payload_flits: u32,
    tag: u64,
) {
    set_row_field(row, 0, 16, src as u64);
    set_row_field(row, 16, 16, dst as u64);
    set_row_field(row, 32, 16, u64::from(num_payload_flits));
    let tag_bits = 64.min(width.saturating_sub(48));
    if tag_bits > 0 {
        set_row_field(row, 48, tag_bits, tag);
    }
}

/// Decodes the head-flit metadata fields of a `width`-bit head row
/// (inverse of [`write_head_row`]).
#[must_use]
pub fn decode_head_row(row: &[u64], width: u32) -> (NodeId, NodeId, u32, u64) {
    let src = row_field(row, 0, 16) as NodeId;
    let dst = row_field(row, 16, 16) as NodeId;
    let len = row_field(row, 32, 16) as u32;
    let tag_bits = 64.min(width.saturating_sub(48));
    let tag = if tag_bits > 0 {
        row_field(row, 48, tag_bits)
    } else {
        0
    };
    (src, dst, len, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_metadata_roundtrips() {
        for width in [128u32, 100, 129] {
            let mut row = vec![0; width.div_ceil(64) as usize];
            write_head_row(&mut row, width, 12, 63, 51, 0xdead_beef);
            assert_eq!(decode_head_row(&row, width), (12, 63, 51, 0xdead_beef));
            // Rewriting the fields in place encodes the next head.
            write_head_row(&mut row, width, 1, 2, 3, 4);
            assert_eq!(decode_head_row(&row, width), (1, 2, 3, 4));
        }
    }
}

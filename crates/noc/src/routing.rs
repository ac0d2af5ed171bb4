//! Dimension-order routing.

use crate::config::{NocConfig, NodeId, RoutingAlgorithm};

/// Router port directions. `Local` connects the NI; the rest connect
/// neighboring routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// To/from the attached NI (PE or MC).
    Local,
    /// Row − 1.
    North,
    /// Col + 1.
    East,
    /// Row + 1.
    South,
    /// Col − 1.
    West,
}

impl Direction {
    /// All directions in port-index order.
    pub const ALL: [Direction; 5] = [
        Direction::Local,
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// Port index (0..5).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Direction::Local => 0,
            Direction::North => 1,
            Direction::East => 2,
            Direction::South => 3,
            Direction::West => 4,
        }
    }

    /// The opposite direction (input port at the neighbor).
    ///
    /// # Panics
    ///
    /// Panics for `Local`, which has no opposite.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::Local => panic!("local port has no opposite"),
        }
    }
}

/// Computes the output direction for a flit at `current` heading to `dst`
/// under the configured dimension-order routing. Returns `Local` when the
/// flit has arrived.
#[must_use]
pub fn route(config: &NocConfig, current: NodeId, dst: NodeId) -> Direction {
    route_between(
        config.routing,
        config.position(current),
        config.position(dst),
    )
}

/// [`route`] on `(row, col)` positions: the dimension-order step from
/// `current` toward `dst` — for walks that track their position instead
/// of re-deriving it from node ids at every hop.
#[must_use]
pub fn route_between(
    routing: RoutingAlgorithm,
    (cr, cc): (usize, usize),
    (dr, dc): (usize, usize),
) -> Direction {
    match routing {
        RoutingAlgorithm::XY => {
            if cc < dc {
                Direction::East
            } else if cc > dc {
                Direction::West
            } else if cr < dr {
                Direction::South
            } else if cr > dr {
                Direction::North
            } else {
                Direction::Local
            }
        }
        RoutingAlgorithm::YX => {
            if cr < dr {
                Direction::South
            } else if cr > dr {
                Direction::North
            } else if cc < dc {
                Direction::East
            } else if cc > dc {
                Direction::West
            } else {
                Direction::Local
            }
        }
    }
}

/// Number of hops (router-to-router traversals) on the dimension-order
/// path between two nodes (Manhattan distance).
#[must_use]
pub fn hop_count(config: &NocConfig, src: NodeId, dst: NodeId) -> usize {
    let (sr, sc) = config.position(src);
    let (dr, dc) = config.position(dst);
    sr.abs_diff(dr) + sc.abs_diff(dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(routing: RoutingAlgorithm) -> NocConfig {
        let mut c = NocConfig::mesh(4, 4, 64);
        c.routing = routing;
        c
    }

    #[test]
    fn xy_goes_x_first() {
        let c = cfg(RoutingAlgorithm::XY);
        // node 0 (0,0) -> node 15 (3,3): east until col 3, then south.
        assert_eq!(route(&c, 0, 15), Direction::East);
        assert_eq!(route(&c, 3, 15), Direction::South); // (0,3)
        assert_eq!(route(&c, 15, 15), Direction::Local);
    }

    #[test]
    fn yx_goes_y_first() {
        let c = cfg(RoutingAlgorithm::YX);
        assert_eq!(route(&c, 0, 15), Direction::South);
        assert_eq!(route(&c, 12, 15), Direction::East); // (3,0)
    }

    #[test]
    fn xy_path_terminates_at_destination() {
        let c = cfg(RoutingAlgorithm::XY);
        for src in 0..16 {
            for dst in 0..16 {
                let mut cur = src;
                let mut hops = 0;
                loop {
                    match route(&c, cur, dst) {
                        Direction::Local => break,
                        d => {
                            let (r, col) = c.position(cur);
                            cur = match d {
                                Direction::North => c.node_at(r - 1, col),
                                Direction::South => c.node_at(r + 1, col),
                                Direction::East => c.node_at(r, col + 1),
                                Direction::West => c.node_at(r, col - 1),
                                Direction::Local => unreachable!(),
                            };
                            hops += 1;
                            assert!(hops <= 6, "path too long {src}->{dst}");
                        }
                    }
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, hop_count(&c, src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn opposites() {
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
        for (i, d) in Direction::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Direction::Local.opposite();
    }
}

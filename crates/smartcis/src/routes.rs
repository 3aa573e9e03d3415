//! Route planning over the routing-point graph.
//!
//! Two implementations, deliberately:
//!
//! * [`RoutePlanner`] — textbook Dijkstra over the building graph. It
//!   produces the `Route(start, end, path, dist)` table that the
//!   Figure-1 query joins against, with the path rendered as a
//!   `a -> b -> c` string (what the GUI draws).
//! * The **recursive stream view** route maintenance — registered
//!   through the stream engine (see [`crate::app`]) — keeps pairwise
//!   *reachability* incrementally up to date as corridors close and
//!   reopen; the app re-runs Dijkstra only for pairs the view says are
//!   connected. E6 benchmarks that division of labor against full
//!   recomputation.

use std::collections::{BinaryHeap, HashMap};

use aspen_types::{AspenError, Result};

use crate::building::Building;

/// A computed route.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    pub start: String,
    pub end: String,
    /// `start -> ... -> end` rendering.
    pub path: String,
    pub dist_ft: f64,
    /// Waypoint names in order.
    pub waypoints: Vec<String>,
}

/// Dijkstra planner over a building's routing points.
pub struct RoutePlanner {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Adjacency: `adj[u] = [(v, dist)]`.
    adj: Vec<Vec<(usize, f64)>>,
}

impl RoutePlanner {
    pub fn new(building: &Building) -> Self {
        let names: Vec<String> = building.points.iter().map(|p| p.name.clone()).collect();
        let index: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_ascii_lowercase(), i))
            .collect();
        let mut adj = vec![Vec::new(); names.len()];
        for s in &building.segments {
            let a = index[&s.a.to_ascii_lowercase()];
            let b = index[&s.b.to_ascii_lowercase()];
            adj[a].push((b, s.dist_ft));
            adj[b].push((a, s.dist_ft));
        }
        RoutePlanner { names, index, adj }
    }

    /// Remove an undirected segment (corridor closure). Returns whether
    /// anything was removed.
    pub fn close_segment(&mut self, a: &str, b: &str) -> bool {
        let (Some(&ia), Some(&ib)) = (
            self.index.get(&a.to_ascii_lowercase()),
            self.index.get(&b.to_ascii_lowercase()),
        ) else {
            return false;
        };
        let before = self.adj[ia].len();
        self.adj[ia].retain(|(v, _)| *v != ib);
        self.adj[ib].retain(|(v, _)| *v != ia);
        before != self.adj[ia].len()
    }

    /// Shortest route between two named points.
    pub fn route(&self, start: &str, end: &str) -> Result<Route> {
        let s = *self
            .index
            .get(&start.to_ascii_lowercase())
            .ok_or_else(|| AspenError::Unresolved(format!("unknown point '{start}'")))?;
        let e = *self
            .index
            .get(&end.to_ascii_lowercase())
            .ok_or_else(|| AspenError::Unresolved(format!("unknown point '{end}'")))?;

        // Dijkstra with a max-heap of Reverse-ordered (dist, node).
        let mut dist = vec![f64::INFINITY; self.names.len()];
        let mut prev = vec![usize::MAX; self.names.len()];
        dist[s] = 0.0;
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, node: s });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == e {
                break;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        if dist[e].is_infinite() {
            return Err(AspenError::Execution(format!(
                "no route from '{start}' to '{end}' (corridor closed?)"
            )));
        }
        let mut waypoints = vec![];
        let mut cur = e;
        while cur != usize::MAX {
            waypoints.push(self.names[cur].clone());
            if cur == s {
                break;
            }
            cur = prev[cur];
        }
        waypoints.reverse();
        Ok(Route {
            start: self.names[s].clone(),
            end: self.names[e].clone(),
            path: waypoints.join(" -> "),
            dist_ft: dist[e],
            waypoints,
        })
    }

    /// All-pairs routes between routing points. O(n · Dijkstra); building
    /// graphs are tiny.
    pub fn all_routes(&self) -> Vec<Route> {
        let mut out = Vec::new();
        for a in &self.names {
            for b in &self.names {
                if a != b {
                    if let Ok(r) = self.route(a, b) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }

    /// The `Route(start, end, path, dist)` rows that the Figure-1 query
    /// joins against: `start` ranges over every routing point (where a
    /// visitor can stand), `end` over every *room name* (`r.end =
    /// sa.room`), routed to the room's door.
    pub fn room_routes(&self, building: &Building) -> Vec<Route> {
        let mut out = Vec::new();
        for start in &self.names {
            for room in &building.rooms {
                if start.eq_ignore_ascii_case(&room.door) {
                    continue;
                }
                if let Ok(mut r) = self.route(start, &room.door) {
                    r.end = room.name.clone();
                    out.push(r);
                }
            }
        }
        out
    }

    /// Render the room-endpoint routes as a loadable `Route` table.
    pub fn route_table_text(&self, building: &Building) -> String {
        let mut out = String::from("start:text, end:text, path:text, dist:float\n");
        for r in self.room_routes(building) {
            out.push_str(&format!(
                "{}, {}, {}, {:.1}\n",
                r.start,
                r.end,
                r.path.replace(", ", " "),
                r.dist_ft
            ));
        }
        out
    }
}

/// Max-heap entry ordered by *smallest* distance first.
struct HeapEntry {
    dist: f64,
    node: usize,
}
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// SQL text of the recursive reachability view over the routing table —
/// the stream-engine half of route maintenance.
pub const REACHABLE_VIEW_SQL: &str = "\
create recursive view Reachable as (
    select e.src, e.dst from RoutePoints e
    union
    select r.src, e.dst from Reachable r, RoutePoints e where r.dst = e.src
)";

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> (Building, RoutePlanner) {
        let b = Building::moore_wing(3, 4, 100.0);
        let p = RoutePlanner::new(&b);
        (b, p)
    }

    #[test]
    fn shortest_route_follows_corridor() {
        let (_b, p) = planner();
        let r = p.route("entrance", "door_lab2").unwrap();
        assert_eq!(r.waypoints.first().unwrap(), "entrance");
        assert_eq!(r.waypoints.last().unwrap(), "door_lab2");
        // entrance -> hall1 -> hall2 -> door_lab2 = 100 + 100 + 15
        assert!((r.dist_ft - 215.0).abs() < 1e-9, "dist={}", r.dist_ft);
        assert_eq!(r.path, "entrance -> hall1 -> hall2 -> door_lab2");
    }

    #[test]
    fn route_to_self_is_error_free_pairing() {
        let (_b, p) = planner();
        // self-route excluded from all_routes
        let routes = p.all_routes();
        assert!(routes.iter().all(|r| r.start != r.end));
    }

    #[test]
    fn unknown_points_error() {
        let (_b, p) = planner();
        assert!(p.route("entrance", "narnia").is_err());
        assert!(p.route("narnia", "entrance").is_err());
    }

    #[test]
    fn closing_a_corridor_reroutes_or_disconnects() {
        let (_b, mut p) = planner();
        let before = p.route("entrance", "door_lab3").unwrap();
        assert!(p.close_segment("hall2", "hall3"));
        // Linear hallway: lab3 becomes unreachable.
        assert!(p.route("entrance", "door_lab3").is_err());
        // Already-removed segment reports false.
        assert!(!p.close_segment("hall2", "hall3"));
        // Other destinations still fine.
        let lab1 = p.route("entrance", "door_lab1").unwrap();
        assert!(lab1.dist_ft <= before.dist_ft);
    }

    #[test]
    fn route_table_loads_into_catalog() {
        use aspen_catalog::Catalog;
        use aspen_wrappers::StaticTableLoader;
        let (b, p) = planner();
        let cat = Catalog::new();
        let batch = StaticTableLoader::register(&cat, "Route", &p.route_table_text(&b)).unwrap();
        assert!(batch.len() > 10);
        let meta = cat.source("Route").unwrap();
        assert_eq!(meta.schema.len(), 4);
    }

    #[test]
    fn room_routes_end_at_room_names() {
        let (b, p) = planner();
        let routes = p.room_routes(&b);
        assert!(routes
            .iter()
            .any(|r| r.start == "entrance" && r.end == "lab2"));
        // The path still walks through the door point.
        let r = routes
            .iter()
            .find(|r| r.start == "entrance" && r.end == "lab2")
            .unwrap();
        assert!(r.path.ends_with("door_lab2"), "{}", r.path);
    }

    #[test]
    fn triangle_inequality_holds() {
        let (_b, p) = planner();
        let ab = p.route("entrance", "hall2").unwrap().dist_ft;
        let bc = p.route("hall2", "door_lab3").unwrap().dist_ft;
        let ac = p.route("entrance", "door_lab3").unwrap().dist_ft;
        assert!(ac <= ab + bc + 1e-9);
    }
}

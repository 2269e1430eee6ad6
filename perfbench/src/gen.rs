//! Seeded inputs: the databases (as `LYRIC-DB 1` text dumps), the query
//! streams, and an independent integer oracle for every query.
//!
//! All geometry is axis-aligned boxes with integer corners, so whether
//! two closed boxes (or a box and a window) meet is decided exactly by
//! comparing endpoints, with no constraint solving on the benchmark side.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64: a small, fast generator that is the same on every
/// platform, so a seed names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1995_B0D5_C0DE)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// A closed integer box `[x0, x1] × [y0, y1]`.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    pub x0: i64,
    pub x1: i64,
    pub y0: i64,
    pub y1: i64,
}

impl Rect {
    pub fn meets(&self, o: &Rect) -> bool {
        self.x0 <= o.x1 && o.x0 <= self.x1 && self.y0 <= o.y1 && o.y0 <= self.y1
    }

    pub fn intersect(&self, o: &Rect) -> Rect {
        Rect {
            x0: self.x0.max(o.x0),
            x1: self.x1.min(o.x1),
            y0: self.y0.max(o.y0),
            y1: self.y1.min(o.y1),
        }
    }
}

/// One query of a stream: its text and the exact expected answer, each
/// row rendered as its oids joined by `,`.
pub struct Query {
    pub text: String,
    pub expected: BTreeSet<String>,
}

// ------------------------------------------------------------------ office

/// The office workload: `n` objects placed in a room, each with its own
/// catalog object (alternately a 8 × 4 desk and a 2 × 4 file cabinet) in
/// the paper's Figure 1 shape — a local `extent`, a `translation` to room
/// coordinates, and the object's `location`.
pub struct Office {
    pub dump: String,
    /// Each object's extent in room coordinates, indexed by object number.
    pub boxes: Vec<Rect>,
    /// Room width and height.
    room: (i64, i64),
}

const OFFICE_SCHEMA: &str = "LYRIC-DB 1

CLASS Office_Object
  INTERFACE x,y
  ATTR name SCALAR CLASS string
  ATTR extent SCALAR CST w,z
  ATTR translation SCALAR CST w,z,x,y,u,v
END

CLASS Desk
  PARENT Office_Object
END

CLASS File_Cabinet
  PARENT Office_Object
END

CLASS Object_In_Room
  ATTR inv_number SCALAR CLASS string
  ATTR location SCALAR CST x,y
  ATTR catalog_object SCALAR CLASS Office_Object RENAME x,y
END
";

pub fn office(n: usize, room: (i64, i64), rng: &mut Rng) -> Office {
    let mut dump = String::from(OFFICE_SCHEMA);
    let mut boxes = Vec::with_capacity(n);
    for i in 0..n {
        let (class, hw, hh) = if i % 2 == 0 {
            ("Desk", 4, 2)
        } else {
            ("File_Cabinet", 1, 2)
        };
        let x = rng.range(5, room.0 - 5);
        let y = rng.range(5, room.1 - 5);
        boxes.push(Rect {
            x0: x - hw,
            x1: x + hw,
            y0: y - hh,
            y1: y + hh,
        });
        write!(
            dump,
            "
OBJECT named:catalog_{i} CLASS {class}
  SET name = str:'catalog item {i}'
  SET extent = cst:((w,z) | w >= -{hw} AND w <= {hw} AND z >= -{hh} AND z <= {hh})
  SET translation = cst:((w,z,x,y,u,v) | u = x + w AND v = y + z)
END

OBJECT named:room_obj_{i} CLASS Object_In_Room
  SET inv_number = str:'inv-{i}'
  SET location = cst:((x,y) | x = {x} AND y = {y})
  SET catalog_object = named:catalog_{i}
END
"
        )
        .expect("string write");
    }
    Office { dump, boxes, room }
}

/// A random query window inside the room: `w_lo..w_hi` wide and half as
/// high.
fn window(office: &Office, rng: &mut Rng, w_lo: i64, w_hi: i64) -> Rect {
    let w = rng.range(w_lo, w_hi);
    let h = w / 2;
    let x0 = rng.range(0, office.room.0 - w);
    let y0 = rng.range(0, office.room.1 - h);
    Rect {
        x0,
        x1: x0 + w,
        y0,
        y1: y0 + h,
    }
}

/// The served scan: every room object whose room-coordinate extent meets
/// a random window. One binding per object, each instantiating the
/// object's extent through its translation and checking the conjunction
/// with the window for satisfiability.
pub fn scan_query(office: &Office, rng: &mut Rng) -> Query {
    let win = window(office, rng, 20, 80);
    let text = format!(
        "SELECT O FROM Object_In_Room O \
         WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L] \
         AND (E(w,z) AND D(w,z,x,y,u,v) AND L(x,y) \
         AND u >= {} AND u <= {} AND v >= {} AND v <= {})",
        win.x0, win.x1, win.y0, win.y1
    );
    let expected = office
        .boxes
        .iter()
        .enumerate()
        .filter(|(_, b)| b.meets(&win))
        .map(|(i, _)| format!("room_obj_{i}"))
        .collect();
    Query { text, expected }
}

/// The served pairwise join: ordered pairs of distinct room objects whose
/// extents share a point inside a random window — a quadratic FROM with
/// one satisfiability predicate per pair.
pub fn join_query(office: &Office, rng: &mut Rng) -> Query {
    let win = window(office, rng, 8, 24);
    let text = format!(
        "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y \
         WHERE X.catalog_object[CX] AND Y.catalog_object[CY] \
         AND X.location[LX] AND Y.location[LY] \
         AND CX.extent[EX] AND CX.translation[DX] \
         AND CY.extent[EY] AND CY.translation[DY] \
         AND X != Y \
         AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y) \
         AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2) \
         AND u >= {} AND u <= {} AND v >= {} AND v <= {})",
        win.x0, win.x1, win.y0, win.y1
    );
    let mut expected = BTreeSet::new();
    for (i, a) in office.boxes.iter().enumerate() {
        if !a.meets(&win) {
            continue;
        }
        let aw = a.intersect(&win);
        for (j, b) in office.boxes.iter().enumerate() {
            if i != j && aw.meets(b) {
                expected.insert(format!("room_obj_{i},room_obj_{j}"));
            }
        }
    }
    Query { text, expected }
}

// ------------------------------------------------------------------- items

/// The index workload: flat `Item` objects with a unique integer
/// `weight` and a 10 × 10 `region` box whose corner is uniform in
/// `[0, n) × [0, 1000)`, so a strip of width 10 meets about 20 items
/// whatever `n` is.
pub struct Items {
    /// `regions[w]` is the region of the item with weight `w`; item
    /// `item_{w}` has weight `w`.
    regions: Vec<Rect>,
}

const ITEMS_SCHEMA: &str = "LYRIC-DB 1

CLASS Item
  ATTR weight SCALAR CLASS int
  ATTR label SCALAR CLASS string
  ATTR region SCALAR CST u,v
END
";

impl Items {
    pub fn new(n: usize, rng: &mut Rng) -> Items {
        let regions = (0..n)
            .map(|_| {
                let x = rng.range(0, n as i64);
                let y = rng.range(0, 1000);
                Rect {
                    x0: x,
                    x1: x + 10,
                    y0: y,
                    y1: y + 10,
                }
            })
            .collect();
        Items { regions }
    }

    pub fn dump(&self) -> String {
        let mut dump = String::from(ITEMS_SCHEMA);
        for w in 0..self.regions.len() {
            let r = &self.regions[w];
            write!(
                dump,
                "
OBJECT named:item_{w} CLASS Item
  SET weight = int:{w}
  SET label = str:'L{}'
  SET region = cst:((u,v) | u >= {} AND u <= {} AND v >= {} AND v <= {})
END
",
                w % 7,
                r.x0,
                r.x1,
                r.y0,
                r.y1
            )
            .expect("string write");
        }
        dump
    }

    /// A random read: a point lookup on `weight`, a range over the highest
    /// weights, or a strip window over `region` — each answerable by a
    /// store-index probe.
    pub fn read_query(&self, rng: &mut Rng) -> Query {
        let n = self.regions.len() as i64;
        let name = |w: i64| format!("item_{w}");
        match rng.range(0, 3) {
            0 => {
                let k = rng.range(0, n);
                Query {
                    text: format!("SELECT X FROM Item X WHERE X.weight = {k}"),
                    expected: [name(k)].into(),
                }
            }
            1 => {
                let lo = n - rng.range(1, 40);
                Query {
                    text: format!("SELECT X FROM Item X WHERE X.weight >= {lo}"),
                    expected: (lo..n).map(name).collect(),
                }
            }
            _ => {
                let lo = rng.range(0, n);
                let strip = Rect {
                    x0: lo,
                    x1: lo + 10,
                    y0: 0,
                    y1: i64::MAX,
                };
                Query {
                    text: format!(
                        "SELECT X FROM Item X WHERE X.region[E] \
                         AND (E(a,b) AND a >= {} AND a <= {} AND b >= 0)",
                        strip.x0, strip.x1
                    ),
                    expected: (0..n)
                        .filter(|&w| self.regions[w as usize].meets(&strip))
                        .map(name)
                        .collect(),
                }
            }
        }
    }
}

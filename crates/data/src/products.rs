//! Product-record generators standing in for the Restaurants and Buy
//! imputation datasets (Table 4's workloads).
//!
//! Both datasets have the structure the hybrid strategy exploits:
//!
//! * records embed near their same-label peers (shared streets / area codes /
//!   product lines), so a k-NN over record text is *fairly* accurate — but a
//!   deliberate minority of records carry ambiguous surface signal (shared
//!   street names, missing phones, generic product descriptions), which is
//!   where naive k-NN goes wrong;
//! * the latent attribute value is recoverable from the record semantics, so
//!   an LLM oracle does well — modulo formatting variants ("TomTom" vs
//!   "Tom Tom") that exact-match scoring penalizes, as the paper observes.

use std::collections::HashMap;

use crowdprompt_oracle::world::{ItemId, WorldModel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::record::{serialize_record, Record, Value};

/// A generated imputation workload.
#[derive(Debug, Clone)]
pub struct ProductDataset {
    /// World model: record text (target excluded) + true attribute values.
    pub world: WorldModel,
    /// All record items.
    pub records: Vec<ItemId>,
    /// The attribute to impute.
    pub target: String,
    /// Gold value per record.
    pub gold: HashMap<ItemId, String>,
}

impl ProductDataset {
    /// The serialized record text (target excluded) for an item.
    pub fn text(&self, id: ItemId) -> &str {
        self.world.text(id).expect("records come from this world") // lint: allow(no-unwrap)
    }

    /// Gold value of the target attribute for an item.
    pub fn gold_value(&self, id: ItemId) -> &str {
        self.gold.get(&id).map(String::as_str).unwrap_or("")
    }
}

// ---------------------------------------------------------------------------
// Restaurants: impute `city`
// ---------------------------------------------------------------------------

struct City {
    name: &'static str,
    area_codes: &'static [&'static str],
    streets: &'static [&'static str],
}

const CITIES: &[City] = &[
    City {
        name: "san francisco",
        area_codes: &["415"],
        streets: &["mission st", "valencia st", "geary blvd", "market st"],
    },
    City {
        name: "new york",
        area_codes: &["212", "646"],
        streets: &["broadway", "lexington ave", "mulberry st", "amsterdam ave"],
    },
    City {
        name: "los angeles",
        area_codes: &["213", "310"],
        streets: &["sunset blvd", "wilshire blvd", "melrose ave", "vermont ave"],
    },
    City {
        name: "berkeley",
        area_codes: &["510"],
        streets: &["shattuck ave", "telegraph ave", "college ave", "solano ave"],
    },
    City {
        name: "chicago",
        area_codes: &["312"],
        streets: &["michigan ave", "halsted st", "clark st", "milwaukee ave"],
    },
    City {
        name: "seattle",
        area_codes: &["206"],
        streets: &["pike st", "rainier ave", "ballard ave", "capitol way"],
    },
];

/// Streets that exist in *every* city: records on these give k-NN no
/// city-discriminating signal.
const SHARED_STREETS: &[&str] = &["main st", "oak ave", "park ave", "1st st"];

const CUISINES: &[&str] = &[
    "italian",
    "french",
    "mexican",
    "thai",
    "japanese",
    "indian",
    "bbq",
    "seafood",
    "vegetarian",
    "diner",
    "steakhouse",
    "tapas",
];

const RESTAURANT_HEADS: &[&str] = &[
    "golden", "blue", "little", "grand", "royal", "rustic", "urban", "old town", "corner",
    "harbor", "garden", "silver",
];

const RESTAURANT_TAILS: &[&str] = &[
    "fork",
    "table",
    "kitchen",
    "bistro",
    "grill",
    "cafe",
    "house",
    "spoon",
    "oven",
    "tavern",
    "cantina",
    "brasserie",
];

/// Generate a Restaurants-style dataset: impute the `city` attribute.
///
/// Roughly 30% of records are made *ambiguous* — they sit on a street name
/// shared by all cities and have no phone number — so that a naive k-NN
/// lands near the paper's ~73% accuracy while the unanimity-gated subset
/// stays highly accurate.
pub fn restaurants(n: usize, seed: u64) -> ProductDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut world = WorldModel::new();
    let mut records = Vec::with_capacity(n);
    let mut gold = HashMap::with_capacity(n);
    for i in 0..n {
        let city = &CITIES[rng.random_range(0..CITIES.len())];
        // Ambiguity correlates with the gold value's formatting profile:
        // multi-word cities ("san francisco") are dense markets with
        // distinctive streets and listed phones, while single-word cities
        // more often have sparse records (shared street names, no phone).
        // This is the structure behind the paper's hybrid-vs-LLM-only gap:
        // the k-NN gate covers exactly the records whose gold values an LLM
        // tends to reformat.
        let ambiguous = if city.name.contains(' ') {
            rng.random_bool(0.18)
        } else {
            rng.random_bool(0.72)
        };
        let street = if ambiguous {
            SHARED_STREETS[rng.random_range(0..SHARED_STREETS.len())]
        } else {
            city.streets[rng.random_range(0..city.streets.len())]
        };
        let name = format!(
            "{} {} {}",
            RESTAURANT_HEADS[rng.random_range(0..RESTAURANT_HEADS.len())],
            CUISINES[rng.random_range(0..CUISINES.len())],
            RESTAURANT_TAILS[rng.random_range(0..RESTAURANT_TAILS.len())],
        );
        let number = rng.random_range(1..2000);
        let mut record = Record::new()
            .with("name", name)
            .with("address", format!("{number} {street}"));
        if ambiguous {
            record.push("phone", Value::Missing);
        } else {
            let area = city.area_codes[rng.random_range(0..city.area_codes.len())];
            record.push(
                "phone",
                format!("{area}-555-{:04}", rng.random_range(0..10_000)),
            );
        }
        record.push("cuisine", CUISINES[rng.random_range(0..CUISINES.len())]);
        record.push("city", city.name);

        let text = serialize_record(&record, Some("city"));
        let id = world.add_item(text);
        world.set_attr(id, "city", city.name);
        // Unused by imputation, but lets predicate tasks run on this data.
        world.set_flag(id, "ambiguous", ambiguous);
        gold.insert(id, city.name.to_owned());
        records.push(id);
        let _ = i;
    }
    ProductDataset {
        world,
        records,
        target: "city".to_owned(),
        gold,
    }
}

// ---------------------------------------------------------------------------
// Buy: impute `manufacturer`
// ---------------------------------------------------------------------------

struct Maker {
    /// Gold manufacturer string (what exact-match scoring expects).
    gold: &'static str,
    /// How the brand appears in product names (may differ in formatting —
    /// the paper's "TomTom" vs "Tom Tom" trap).
    brand_in_name: &'static str,
    /// Product categories this maker sells. Categories are *shared* across
    /// makers, so a record without the brand in its name gives k-NN little
    /// manufacturer signal.
    categories: &'static [usize],
}

/// Generic product categories; multiple makers sell in each.
const CATEGORIES: &[&str] = &[
    "gps navigator",
    "digital camera",
    "wireless router",
    "usb tv tuner",
    "laser mouse",
    "cordless phone system",
];

const MAKERS: &[Maker] = &[
    Maker {
        gold: "Tom Tom",
        brand_in_name: "TomTom",
        categories: &[0],
    },
    Maker {
        gold: "Garmin",
        brand_in_name: "Garmin",
        categories: &[0],
    },
    Maker {
        gold: "Canon",
        brand_in_name: "Canon",
        categories: &[1],
    },
    Maker {
        gold: "Panasonic",
        brand_in_name: "Panasonic",
        categories: &[1, 5],
    },
    Maker {
        gold: "Netgear",
        brand_in_name: "NETGEAR",
        categories: &[2],
    },
    Maker {
        gold: "Belkin",
        brand_in_name: "Belkin",
        categories: &[2, 4],
    },
    Maker {
        gold: "Elgato",
        brand_in_name: "Elgato Systems",
        categories: &[3],
    },
    Maker {
        gold: "Logitech",
        brand_in_name: "Logitech",
        categories: &[4, 3],
    },
];

const BUY_DESCRIPTIONS: &[&str] = &[
    "factory sealed retail box",
    "includes usb cable and manual",
    "refurbished with 90 day warranty",
    "brand new in original packaging",
    "ships within 24 hours",
    "open box item, fully tested",
];

/// Generate a Buy-style dataset: impute the `manufacturer` attribute.
///
/// ~40% of records have the brand stripped from the product name (listing
/// sites often truncate); since categories are shared across makers and
/// model codes are per-listing noise, k-NN over record text has little to
/// go on for those records — that is where the LLM earns its keep, and why
/// naive k-NN lands near the paper's ~68%.
pub fn buy(n: usize, seed: u64) -> ProductDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut world = WorldModel::new();
    let mut records = Vec::with_capacity(n);
    let mut gold = HashMap::with_capacity(n);
    for _ in 0..n {
        let maker = &MAKERS[rng.random_range(0..MAKERS.len())];
        let category = CATEGORIES[maker.categories[rng.random_range(0..maker.categories.len())]];
        // Per-listing model code: noise, not manufacturer signal.
        let model = format!(
            "{}{}-{}",
            (b'a' + rng.random_range(0..26u8)) as char,
            (b'a' + rng.random_range(0..26u8)) as char,
            rng.random_range(100..1000)
        );
        let branded = rng.random_bool(0.6);
        let name = if branded {
            format!("{} {category} {model}", maker.brand_in_name)
        } else {
            format!("{category} {model}")
        };
        let price = rng.random_range(20..900);
        let record = Record::new()
            .with("name", name)
            .with(
                "description",
                BUY_DESCRIPTIONS[rng.random_range(0..BUY_DESCRIPTIONS.len())],
            )
            .with("price", format!("${price}.{:02}", rng.random_range(0..100)))
            .with("manufacturer", maker.gold);

        let text = serialize_record(&record, Some("manufacturer"));
        let id = world.add_item(text);
        world.set_attr(id, "manufacturer", maker.gold);
        world.set_flag(id, "branded", branded);
        gold.insert(id, maker.gold.to_owned());
        records.push(id);
    }
    ProductDataset {
        world,
        records,
        target: "manufacturer".to_owned(),
        gold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restaurants_structure() {
        let d = restaurants(100, 1);
        assert_eq!(d.records.len(), 100);
        assert_eq!(d.target, "city");
        for &id in &d.records {
            let text = d.text(id);
            assert!(!text.contains("city is"), "target leaked into text: {text}");
            assert!(!d.gold_value(id).is_empty());
            assert_eq!(d.world.attr(id, "city").unwrap(), d.gold_value(id));
        }
    }

    #[test]
    fn restaurants_ambiguity_rate() {
        let d = restaurants(400, 2);
        let ambiguous = d
            .records
            .iter()
            .filter(|id| d.world.flag(**id, "ambiguous") == Some(true))
            .count();
        // Half the cities are multi-word (ambiguous w.p. 0.18), half are
        // single-word (0.72) — overall ~0.45.
        let rate = ambiguous as f64 / 400.0;
        assert!((0.33..=0.57).contains(&rate), "rate {rate}");
    }

    #[test]
    fn restaurants_ambiguity_correlates_with_city_format() {
        let d = restaurants(600, 7);
        let (mut multi_amb, mut multi_n, mut single_amb, mut single_n) = (0, 0, 0, 0);
        for &id in &d.records {
            let amb = d.world.flag(id, "ambiguous") == Some(true);
            if d.gold_value(id).contains(' ') {
                multi_n += 1;
                multi_amb += usize::from(amb);
            } else {
                single_n += 1;
                single_amb += usize::from(amb);
            }
        }
        let multi_rate = multi_amb as f64 / multi_n.max(1) as f64;
        let single_rate = single_amb as f64 / single_n.max(1) as f64;
        assert!(
            single_rate > multi_rate + 0.3,
            "single-word cities should be far more ambiguous: {single_rate} vs {multi_rate}"
        );
    }

    #[test]
    fn unambiguous_restaurants_have_area_code_signal() {
        let d = restaurants(200, 3);
        for &id in &d.records {
            if d.world.flag(id, "ambiguous") == Some(false) {
                let text = d.text(id);
                assert!(text.contains("phone is"), "{text}");
            }
        }
    }

    #[test]
    fn buy_structure_and_brand_trap() {
        let d = buy(200, 4);
        assert_eq!(d.target, "manufacturer");
        let mut gold_with_space = 0;
        let mut name_without_space = 0;
        for &id in &d.records {
            let text = d.text(id);
            assert!(!text.contains("manufacturer is"));
            if d.gold_value(id) == "Tom Tom" {
                gold_with_space += 1;
                if text.contains("TomTom") {
                    name_without_space += 1;
                }
            }
        }
        assert!(gold_with_space > 0, "TomTom records should occur");
        assert!(
            name_without_space > 0,
            "the name formatting should differ from the gold value"
        );
    }

    #[test]
    fn buy_unbranded_fraction() {
        let d = buy(400, 5);
        let unbranded = d
            .records
            .iter()
            .filter(|id| d.world.flag(**id, "branded") == Some(false))
            .count();
        let rate = unbranded as f64 / 400.0;
        assert!((0.3..=0.5).contains(&rate), "rate {rate}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = restaurants(50, 9);
        let b = restaurants(50, 9);
        let ta: Vec<&str> = a.records.iter().map(|i| a.text(*i)).collect();
        let tb: Vec<&str> = b.records.iter().map(|i| b.text(*i)).collect();
        assert_eq!(ta, tb);
        let c = buy(50, 9);
        let d = buy(50, 9);
        let tc: Vec<&str> = c.records.iter().map(|i| c.text(*i)).collect();
        let td: Vec<&str> = d.records.iter().map(|i| d.text(*i)).collect();
        assert_eq!(tc, td);
    }

    #[test]
    fn every_record_holds_its_target() {
        let d = restaurants(20, 11);
        for &id in &d.records {
            assert_eq!(d.world.attr(id, "city"), Some(d.gold_value(id)));
        }
    }
}

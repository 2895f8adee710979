//! The one record schema: a [`Field`] trait (value ⇄ [`Value`]) and the
//! [`record!`](crate::record!) macro that declares a record's struct, its
//! writer and its parser from one field list.
//!
//! Every JSONL record and the BENCH document go through this module, so a
//! JSON field name is written once, next to the Rust field it belongs to,
//! and "get a typed field or [`ParseError::missing`]" exists once, as
//! [`field`]. Cross-field identities (conservation, outcome partitions,
//! monotone reachability) live only in a record's `validate` method, which
//! the generated parser calls last. DESIGN.md §4d has the recipe for adding
//! a record type.

use crate::error::ParseError;
use crate::json::Value;

const MISTYPED: &str = "missing or mistyped field";

/// A value that crosses the JSON boundary as one field of a record.
pub trait Field: Sized {
    /// The JSON form.
    fn to_json(&self) -> Value;

    /// Parse the JSON form back. A scalar's error carries no field name
    /// ([`field`] adds the key); a nested record's names its own field.
    fn from_json(v: &Value) -> Result<Self, ParseError>;

    /// What an absent key means: an error, except for `Option`.
    fn absent(key: &str) -> Result<Self, ParseError> {
        Err(ParseError::missing(key))
    }
}

fn named<T>(key: &str, parsed: Result<T, ParseError>) -> Result<T, ParseError> {
    parsed.map_err(|mut e| {
        // The innermost name wins: `delivered` inside `probe`, not `probe`.
        e.field.get_or_insert_with(|| key.to_string());
        e
    })
}

/// The typed getter: field `key` of object `v` as a `T`.
pub fn field<T: Field>(v: &Value, key: &str) -> Result<T, ParseError> {
    match v.get(key) {
        None => T::absent(key),
        Some(x) => named(key, T::from_json(x)),
    }
}

/// [`field`] for a key that older writers did not emit.
pub fn field_or<T: Field>(v: &Value, key: &str, default: T) -> Result<T, ParseError> {
    v.get(key)
        .map_or(Ok(default), |x| named(key, T::from_json(x)))
}

/// [`field`] through a caller-supplied parser (a record whose writer needs
/// context and so has no [`Field`] impl).
pub fn field_with<T>(
    v: &Value,
    key: &str,
    parse: impl FnOnce(&Value) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    named(
        key,
        v.get(key)
            .ok_or_else(|| ParseError::missing(key))
            .and_then(parse),
    )
}

/// The record's `type` tag, if it has one.
pub fn tag(v: &Value) -> Option<&str> {
    v.get("type").and_then(Value::as_str)
}

/// Run `parse` on a record that must carry `tag`, stamping the tag onto any
/// error.
pub fn tagged<T>(
    v: &Value,
    expected: &str,
    parse: impl FnOnce(&Value) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    if tag(v) != Some(expected) {
        return Err(ParseError::not_record(expected));
    }
    parse(v).map_err(|e| e.for_type(expected))
}

/// A JSON array of `items`, each written by `write`.
pub fn array<T>(items: &[T], write: impl Fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(write).collect())
}

/// A JSON array parsed element by element.
pub fn list<T>(
    v: &Value,
    parse: impl Fn(&Value) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let items = v.as_array().ok_or_else(|| ParseError::new(MISTYPED))?;
    items.iter().map(parse).collect()
}

/// Append the fields of `nested`'s object form to `out` (a flattened
/// sub-record, e.g. a span's counter deltas).
pub fn flatten_into(out: &mut Vec<(String, Value)>, nested: &impl Field) {
    if let Value::Object(fields) = nested.to_json() {
        out.extend(fields);
    }
}

macro_rules! scalar {
    ($t:ty, $get:ident) => {
        impl Field for $t {
            fn to_json(&self) -> Value {
                Value::from(*self)
            }
            fn from_json(v: &Value) -> Result<$t, ParseError> {
                v.$get().ok_or_else(|| ParseError::new(MISTYPED))
            }
        }
    };
}
scalar!(u64, as_u64);
scalar!(f64, as_f64);
scalar!(bool, as_bool);

/// Narrower integers are range-checked here, once, instead of `as`-cast at
/// each parse site: `"src": 4294967297` is an error, not vertex 1.
macro_rules! narrow {
    ($t:ty) => {
        impl Field for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
            fn from_json(v: &Value) -> Result<$t, ParseError> {
                <$t>::try_from(u64::from_json(v)?).map_err(|_| ParseError::new("out of range"))
            }
        }
    };
}
narrow!(u32);
narrow!(usize);

impl Field for String {
    fn to_json(&self) -> Value {
        Value::from(self.as_str())
    }
    fn from_json(v: &Value) -> Result<String, ParseError> {
        let s = v.as_str().ok_or_else(|| ParseError::new(MISTYPED))?;
        Ok(s.to_string())
    }
}

/// `None` is written as `null`; `null` and an absent key both read as `None`.
impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
    fn from_json(v: &Value) -> Result<Option<T>, ParseError> {
        match v {
            Value::Null => Ok(None),
            x => T::from_json(x).map(Some),
        }
    }
    fn absent(_key: &str) -> Result<Option<T>, ParseError> {
        Ok(None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Value {
        array(self, T::to_json)
    }
    fn from_json(v: &Value) -> Result<Vec<T>, ParseError> {
        list(v, T::from_json)
    }
}

/// An ordered name → value map (metric counters, a bench case's simulated
/// columns) is a JSON object; an entry's error names its key.
impl<T: Field> Field for Vec<(String, T)> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, x)| (k.clone(), x.to_json())).collect())
    }
    fn from_json(v: &Value) -> Result<Vec<(String, T)>, ParseError> {
        let entries = v.as_object().ok_or_else(|| ParseError::new(MISTYPED))?;
        entries
            .iter()
            .map(|(k, x)| Ok((k.clone(), named(k, T::from_json(x))?)))
            .collect()
    }
}

/// An enum with `name()` / `from_name()` crosses as its schema name.
macro_rules! named {
    ($t:ty) => {
        impl Field for $t {
            fn to_json(&self) -> Value {
                Value::from(self.name())
            }
            fn from_json(v: &Value) -> Result<$t, ParseError> {
                let name = v.as_str().and_then(<$t>::from_name);
                name.ok_or_else(|| ParseError::new("missing or unknown name"))
            }
        }
    };
}
named!(crate::flight::HopKind);
named!(crate::profile::Phase);

/// Declare a record: the struct, `to_value`, `from_value` and (when the
/// writer takes no parameters) a [`Field`] impl, from one field list.
///
/// ```text
/// record! {
///     /// Docs and derives pass through.
///     #[derive(Clone, Debug, PartialEq)]
///     pub struct Name(extra: &[(&str, Value)]): "type_tag" {   // both optional
///         pub a: u64,                            // JSON name = Rust name
///         pub wall: WallStats => "wall_ns",      // renamed
///         pub threads: u64 = 1,                  // defaulted when absent
///         pub delta: Counters => ..,             // flattened into this object
///         pub memory: Option<MemoryDist> => ?,   // omitted (not null) when None
///         pub rows: Vec<Row> => [write, read],   // |&Self| -> Value, |&Value| -> Result
///         + "ok" = |r| r.ok(),                   // write-only derived field
///         ..extra                                // appended pass-through
///     }
///     validate                                   // call `self.validate()` on parse
/// }
/// ```
///
/// Writer parameters (`extra`, or the context a derived field needs) become
/// parameters of `to_value`. `from_value` checks the tag, reads the fields
/// in order, then runs `validate` — the only place cross-field identities
/// live — and stamps the tag onto any error.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(($($param:ident : $pty:ty),+))? $(: $tag:literal)? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $f:ident : $fty:ty $(=> $how:tt)? $(= $default:expr)? ,
                $(+ $dkey:literal = |$dself:ident| $dexpr:expr ,)*
            )*
            $(.. $rest:ident)?
        }
        $($validate:ident)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $f: $fty, )*
        }

        impl $name {
            /// Serialize as one JSON object, fields in declaration order.
            #[allow(clippy::vec_init_then_push)]
            $vis fn to_value(&self $($(, $param: $pty)+)?) -> $crate::json::Value {
                use $crate::record::Field as _;
                let mut out: Vec<(String, $crate::json::Value)> = Vec::new();
                $( out.push(("type".to_string(), $crate::json::Value::from($tag))); )?
                $(
                    $crate::record!(@put out self $f $($how)?);
                    $( out.push(($dkey.to_string(), { let $dself = self; ($dexpr).to_json() })); )*
                )*
                $( out.extend($rest.iter().map(|(k, v)| (k.to_string(), v.clone()))); )?
                $crate::json::Value::Object(out)
            }

            /// Parse the object back, then re-check the record's identities.
            ///
            /// # Errors
            ///
            /// Returns a `ParseError` naming the first missing, ill-typed or
            /// out-of-range field, or the identity the record violates.
            $vis fn from_value(v: &$crate::json::Value) -> Result<$name, $crate::ParseError> {
                let parse = |v: &$crate::json::Value| -> Result<$name, $crate::ParseError> {
                    let record = $name {
                        $( $f: $crate::record!(@get v $f $fty [$($how)?] [$($default)?]), )*
                    };
                    $( record.$validate()?; )?
                    Ok(record)
                };
                $crate::record!(@run v parse $($tag)?)
            }
        }

        $crate::record!(@field_impl $name $(($($param),+))?);
    };

    (@put $out:ident $me:tt $f:ident) => {
        $out.push((stringify!($f).to_string(), $me.$f.to_json()))
    };
    (@put $out:ident $me:tt $f:ident $key:literal) => {
        $out.push(($key.to_string(), $me.$f.to_json()))
    };
    (@put $out:ident $me:tt $f:ident ..) => {
        $crate::record::flatten_into(&mut $out, &$me.$f)
    };
    (@put $out:ident $me:tt $f:ident ?) => {
        if let Some(x) = &$me.$f {
            $out.push((stringify!($f).to_string(), x.to_json()));
        }
    };
    (@put $out:ident $me:tt $f:ident [$write:expr, $read:expr]) => {
        $out.push((stringify!($f).to_string(), ($write)($me)))
    };

    (@get $v:ident $f:ident $t:ty [] []) => {
        $crate::record::field::<$t>($v, stringify!($f))?
    };
    (@get $v:ident $f:ident $t:ty [?] []) => {
        $crate::record::field::<$t>($v, stringify!($f))?
    };
    (@get $v:ident $f:ident $t:ty [$key:literal] []) => {
        $crate::record::field::<$t>($v, $key)?
    };
    (@get $v:ident $f:ident $t:ty [] [$default:expr]) => {
        $crate::record::field_or::<$t>($v, stringify!($f), $default)?
    };
    (@get $v:ident $f:ident $t:ty [..] []) => {
        <$t as $crate::record::Field>::from_json($v)?
    };
    (@get $v:ident $f:ident $t:ty [[$write:expr, $read:expr]] []) => {
        $crate::record::field_with($v, stringify!($f), $read)?
    };

    (@run $v:ident $parse:ident) => { $parse($v) };
    (@run $v:ident $parse:ident $tag:literal) => { $crate::record::tagged($v, $tag, $parse) };

    (@field_impl $name:ident) => {
        impl $crate::record::Field for $name {
            fn to_json(&self) -> $crate::json::Value {
                self.to_value()
            }
            fn from_json(v: &$crate::json::Value) -> Result<$name, $crate::ParseError> {
                $name::from_value(v)
            }
        }
    };
    (@field_impl $name:ident ($($param:ident),+)) => {};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn narrow_integers_are_range_checked_not_truncated() {
        assert_eq!(u32::from_json(&Value::from(4_294_967_295u64)), Ok(u32::MAX));
        let err = u32::from_json(&Value::from(4_294_967_297u64)).unwrap_err();
        assert_eq!(err.message, "out of range");
        // A fraction or a negative is not an index at all.
        assert!(usize::from_json(&Value::from(2.5)).is_err());
        assert!(usize::from_json(&Value::from(-3i64)).is_err());
        let obj = parse(r#"{"src":4294967297}"#).unwrap();
        let err = field::<u32>(&obj, "src").unwrap_err();
        assert_eq!(err, ParseError::bad("src", "out of range"));
    }

    #[test]
    fn options_read_null_and_absent_as_none() {
        let obj = parse(r#"{"a":null,"b":7,"c":"x"}"#).unwrap();
        assert_eq!(field::<Option<u64>>(&obj, "a"), Ok(None));
        assert_eq!(field::<Option<u64>>(&obj, "b"), Ok(Some(7)));
        assert_eq!(field::<Option<u64>>(&obj, "absent"), Ok(None));
        assert_eq!(
            field::<Option<u64>>(&obj, "c"),
            Err(ParseError::missing("c"))
        );
        assert_eq!(
            field::<u64>(&obj, "absent"),
            Err(ParseError::missing("absent"))
        );
        assert_eq!(field_or(&obj, "absent", 1u64), Ok(1));
        assert_eq!(Option::<u64>::None.to_json(), Value::Null);
    }

    #[test]
    fn maps_keep_order_and_name_the_bad_entry() {
        let map = vec![("b".to_string(), 2u64), ("a".to_string(), 1)];
        assert_eq!(map.to_json().to_string(), r#"{"b":2,"a":1}"#);
        let back = Vec::<(String, u64)>::from_json(&map.to_json()).unwrap();
        assert_eq!(back, map);
        let bad = parse(r#"{"counters":{"c":-4}}"#).unwrap();
        let err = field::<Vec<(String, u64)>>(&bad, "counters").unwrap_err();
        assert_eq!(err.field.as_deref(), Some("c"));
    }
}

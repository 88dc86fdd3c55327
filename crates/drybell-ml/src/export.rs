//! Readers and writers shared by the `to_json`/`from_json` pairs of the
//! exported model types. A model file is outside input, so every reader
//! is total: a missing member, a member of the wrong type, a non-finite
//! number (rendered as `null`) or an integer that does not fit all come
//! back as an error naming the field.

use drybell_obs::Json;

/// Member `key` of the object `v`, converted by `read`.
pub(crate) fn field<'a, T>(
    v: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("field `{key}` is missing or malformed"))
}

/// A finite number.
pub(crate) fn finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// The elements of an array (`Json::items` would read any other value as
/// an empty one).
pub(crate) fn array(v: &Json) -> Option<&[Json]> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// An array of finite numbers.
pub(crate) fn finite_vec(v: &Json) -> Option<Vec<f64>> {
    array(v)?.iter().map(finite).collect()
}

/// A non-negative integer that fits `usize`.
pub(crate) fn size(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// An array of numbers.
pub(crate) fn floats(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

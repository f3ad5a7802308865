// GOOD: every indexed item has a caller that counts.
pub fn named_by_a_bin() {}

pub fn named_by_an_example() {}

pub const NAMED_BY_A_LIBRARY_FILE: u32 = 1;

// Not indexed: crate-visible items, types and trait-impl methods.
pub(crate) fn crate_visible_only() {}

pub struct Shape;

impl Default for Shape {
    fn default() -> Shape {
        Shape
    }
}

// fsd_lint::allow(orphan-pub): integration-test inspection surface
pub fn inspected_by_integration_tests() {}

#[cfg(test)]
pub fn test_helper() {}

// Call-shaped uses in another file: `.name(`, `Type::name` as a value and
// a turbofish call.
impl Shape {
    pub fn called_as_a_method(&self) {}

    pub fn passed_as_a_value(&self) {}

    pub fn called_with_a_turbofish<T>(&self) {}
}

// BAD: each item is named only where a caller does not count.
pub fn named_by_a_test_file() {}

pub fn named_by_a_cfg_test_block() {}

pub fn named_by_a_tests_module() {}

pub const NAMED_BY_A_COMMENT: u32 = 1;

pub static NAMED_BY_A_PUB_USE: u32 = 2;

pub const fn named_only_here() -> u32 {
    NAMED_BY_A_COMMENT + NAMED_BY_A_PUB_USE
}

pub struct Window {
    pub span: u32,
}

impl Window {
    // Another file reads the field `span`; nothing calls the method.
    pub fn span(&self) -> u32 {
        self.span
    }
}

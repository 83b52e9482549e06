//! The experiment suite (index: [`crate::INDEX`]).

pub mod audit;
pub mod compare;
pub mod extensions;
pub mod hash;
pub mod ir;
pub mod kvs;
pub mod ram;

//! Tokenizer for the with+ SQL dialect.

use crate::error::{Result, WithPlusError};

#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (SQL is case-insensitive; the parser matches
    /// keywords by lowercase comparison).
    Ident(String),
    Int(i64),
    Float(f64),
    /// `'single quoted'` string literal.
    Str(String),
    /// `:name` named parameter.
    Param(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Eof,
}

impl Token {
    /// Is this the identifier/keyword `kw` (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let err = |msg: &str, at: usize| {
        // char-boundary-safe snippet of what follows the error position
        let mut end = input.len().min(at + 20);
        while end > at && !input.is_char_boundary(end) {
            end -= 1;
        }
        let mut start = at;
        while start < input.len() && !input.is_char_boundary(start) {
            start += 1;
        }
        WithPlusError::Parse {
            message: msg.to_string(),
            near: input.get(start..end).unwrap_or("").to_string(),
        }
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // SQL line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Ne);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(err("unexpected `!`", i));
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err("unterminated string literal", i));
                }
                out.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            ':' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                if j == start {
                    return Err(err("expected parameter name after `:`", i));
                }
                out.push(Token::Param(input[start..j].to_string()));
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                if j + 1 < bytes.len()
                    && bytes[j] == b'.'
                    && (bytes[j + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        is_float = true;
                        j = k;
                        while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &input[start..j];
                if is_float {
                    out.push(Token::Float(
                        text.parse().map_err(|_| err("bad float", start))?,
                    ));
                } else {
                    out.push(Token::Int(
                        text.parse().map_err(|_| err("bad integer", start))?,
                    ));
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.push(Token::Ident(input[start..j].to_string()));
                i = j;
            }
            _ => return Err(err("unexpected character", i)),
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_pagerank_header() {
        let toks = tokenize("with P(ID, W) as (").unwrap();
        assert_eq!(toks[0], Token::Ident("with".into()));
        assert!(toks[1].is_kw("p"));
        assert_eq!(toks[2], Token::LParen);
        assert_eq!(toks[5], Token::Ident("W".into()));
    }

    #[test]
    fn numbers_and_operators() {
        let toks = tokenize("0.85 * sum(w) + (1-0.85)/:n <= 1e3 <> 2").unwrap();
        assert_eq!(toks[0], Token::Float(0.85));
        assert!(matches!(toks[1], Token::Star));
        assert!(toks.contains(&Token::Param("n".into())));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Float(1000.0)));
        assert!(toks.contains(&Token::Ne));
    }

    #[test]
    fn strings_and_comments() {
        let toks = tokenize("select 'lbl' -- a comment\n from V").unwrap();
        assert_eq!(toks[1], Token::Str("lbl".into()));
        assert!(toks[2].is_kw("from"));
    }

    #[test]
    fn qualified_names_split_on_dot() {
        let toks = tokenize("E.F = TC.T").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("E".into()),
                Token::Dot,
                Token::Ident("F".into()),
                Token::Eq,
                Token::Ident("TC".into()),
                Token::Dot,
                Token::Ident("T".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("select 'oops").is_err());
    }

    #[test]
    fn not_equals_bang() {
        assert!(tokenize("a != b").unwrap().contains(&Token::Ne));
        assert!(tokenize("a ! b").is_err());
    }
}
